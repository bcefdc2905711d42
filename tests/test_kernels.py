"""Kernel contract tests: bin lookup conventions, agreement with a dense
orthogonal-decomposition solve, and the numpy kernels against the versions
they replaced."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reglater as rl
from reglater import _kernels
from reglater.errors import ConfigurationError
from reference import design_matrix, first_fit, fit_sample, looped_binned_qr, ols_fit


@pytest.fixture(scope="module")
def problem(basis_cache, w10_law):
    basis = basis_cache(12)
    gen = np.random.default_rng(42)
    a1, a2 = basis.edges[0], basis.edges[-1]
    u = gen.uniform(a1, a2, 20_000)
    x = np.tanh(u) + 0.1 * gen.standard_normal(u.size)
    return basis, u, x


def test_bin_indices_conventions(basis_cache):
    basis = basis_cache(4)
    e = basis.edges
    u = np.array([e[0] - 1.0, e[0], 0.5 * (e[1] + e[2]), e[2], e[4], e[4] + 1e-9])
    idx = _kernels.bin_indices(e, u)
    assert list(idx) == [-1, 0, 1, 2, 3, -1]


def test_binned_qr_matches_dense_ols(problem):
    basis, u, x = problem
    design = design_matrix(basis.edges, basis.centers, basis.norm1, u)
    dense = ols_fit(design, x)
    binned = fit_sample(rl.regress_now_fit, rl.SampleSet(u, x), basis)  # x is noisy
    assert np.max(np.abs(dense.coefficients - binned)) < 1e-9


def test_qr_factor_reproduces_gram(problem):
    basis, u, x = problem
    R, _ = first_fit(_kernels.binned_qr(
        basis.edges, basis.centers, basis.norm1, u, x, [u.size]))
    D = design_matrix(basis.edges, basis.centers, basis.norm1, u)
    G = D.T @ D
    for k in range(basis.K):
        r11, r12, r22 = R[k]
        assert r11**2 == pytest.approx(G[2 * k, 2 * k], rel=1e-10, abs=1e-9)
        assert r11 * r12 == pytest.approx(G[2 * k, 2 * k + 1], rel=1e-8, abs=1e-8)
        assert r12**2 + r22**2 == pytest.approx(G[2 * k + 1, 2 * k + 1], rel=1e-9, abs=1e-9)
    counts = np.bincount(_kernels.bin_indices(basis.edges, u), minlength=basis.K)
    assert np.array_equal(R[:, 0], np.sqrt(basis.K) * np.sqrt(counts))


# ---------------------------------------------------------------------------
# the numpy kernels against the searchsorted / int64-argsort versions they
# replaced: same bins, bit-equal factors
# ---------------------------------------------------------------------------

def _searchsorted_bin_indices(edges, u):
    nbins = edges.size - 1
    idx = np.searchsorted(edges, u, side="right") - 1
    idx[u == edges[-1]] = nbins - 1
    idx[(idx < 0) | (idx >= nbins)] = -1
    return idx.astype(np.int64)


def _argsort_binned_qr(edges, centers, norm1, u, x):
    nbins = centers.size
    R, z = np.zeros((nbins, 3)), np.zeros((nbins, 2))
    idx = _searchsorted_bin_indices(edges, u)
    order = np.argsort(idx, kind="stable")
    idx_s, u_s, x_s = idx[order], u[order], x[order]
    bounds = np.searchsorted(idx_s, np.arange(nbins + 1))
    for k in range(nbins):
        lo, hi = bounds[k], bounds[k + 1]
        nk = hi - lo
        if nk == 0:
            continue
        d = norm1[k] * (u_s[lo:hi] - centers[k])
        y = x_s[lo:hi]
        sq = np.sqrt(nk)
        r12 = np.sum(d) / sq
        w = d - r12 / sq
        r22 = np.sqrt(np.sum(w * w))
        R[k] = (np.sqrt(nbins) * sq, r12, r22)
        z[k] = (np.sum(y) / sq, np.sum(w * y) / r22 if r22 > 0 else 0.0)
    return R, z


def _kernel_case(data, lo_bins, hi_bins):
    """Sorted edges, and values on every edge, next to every edge, outside
    the domain, infinite, NaN and in between, in a drawn order."""
    nbins = data.draw(st.integers(lo_bins, hi_bins), label="nbins")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    edges = data.draw(st.floats(-50.0, 50.0), label="a1") + np.cumsum(
        np.concatenate([[0.0], gen.uniform(1e-3, 2.0, nbins)]))
    u = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [edges[0] - 1.0, edges[-1] + 1.0, -np.inf, np.inf, np.nan],
        gen.uniform(edges[0] - 1.0, edges[-1] + 1.0, data.draw(st.integers(0, 500))),
    ])
    u = u[gen.permutation(u.size)]
    return edges, u, gen


@pytest.mark.parametrize("lo_bins,hi_bins", [(1, _kernels.COMPARE_MAX_BINS),
                                             (_kernels.COMPARE_MAX_BINS + 1, 300)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bin_indices_match_searchsorted(lo_bins, hi_bins, data):
    edges, u, _ = _kernel_case(data, lo_bins, hi_bins)
    got = _kernels.bin_indices(edges, u)
    assert got.dtype == np.int64
    assert np.array_equal(got, _searchsorted_bin_indices(edges, u))


@pytest.mark.parametrize("lo_bins,hi_bins", [(1, _kernels.COMPARE_MAX_BINS),
                                             (_kernels.COMPARE_MAX_BINS + 1, 300)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_binned_qr_bit_equal_to_argsort_version(lo_bins, hi_bins, data):
    edges, u, gen = _kernel_case(data, lo_bins, hi_bins)
    u = u[_searchsorted_bin_indices(edges, u) >= 0]  # the values a fit takes
    nbins = edges.size - 1
    centers = 0.5 * (edges[:-1] + edges[1:])
    norm1 = gen.uniform(0.5, 2.0, nbins)
    if data.draw(st.booleans(), label="flat_bin"):  # every value at the center: r22 = 0
        k = gen.integers(nbins)
        u[(u >= edges[k]) & (u < edges[k + 1])] = centers[k]
    x = np.tanh(u) + gen.standard_normal(u.size)
    got = first_fit(_kernels.binned_qr(edges, centers, norm1, u, x, [u.size]))
    want = _argsort_binned_qr(edges, centers, norm1, u, x)
    for g, w in zip((got.R, got.z), want):  # R[:, 0] = sqrt(K count) per bin
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# the slotted layout: a +0.0 slot ahead of each segment, and one reduceat
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_zero_slot_makes_reduceat_sum_each_segment_as_reduce(data):
    # np.add.reduceat from a segment's +0.0 slot gives the bits of
    # np.add.reduce of the segment's values, signed zeros included; the
    # pairwise sum changes its scheme at 8 and at 128 values
    lengths = data.draw(st.lists(st.one_of(st.integers(0, 300),
                                           st.sampled_from([0, 1, 7, 8, 9, 127, 128, 129])),
                                 min_size=1, max_size=8), label="lengths")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pad = np.cumsum([0] + [m + 1 for m in lengths[:-1]])
    rows = np.zeros((2, sum(lengths) + len(lengths)))
    for p, m in zip(pad, lengths):
        seg = gen.standard_normal((2, m)) * 10.0 ** gen.uniform(-8, 8, (2, m))
        zeros = gen.random((2, m)) < data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="zeros")
        seg[zeros] = np.copysign(0.0, gen.standard_normal(np.sum(zeros)))
        rows[:, p + 1:p + 1 + m] = seg
    want = np.stack([np.add.reduce(rows[:, p + 1:p + 1 + m], axis=1)
                     for p, m in zip(pad, lengths)], axis=1)
    got = np.add.reduceat(rows, pad, axis=1)
    assert got.tobytes() == want.tobytes()
    for row, w in zip(rows, want):
        assert np.add.reduceat(row, pad).tobytes() == w.tobytes()


def _emptied(us, edges, f, k, keep, to):
    """Fit ``f``'s values in bin ``k`` beyond the first ``keep`` moved to ``to``."""
    inside = _searchsorted_bin_indices(edges, us[f]) == k
    us[f][inside & (np.cumsum(inside) > keep)] = to


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_binned_qr_bit_equal_to_looped_reference(data):
    nbins = data.draw(st.integers(1, _kernels.COMPARE_MAX_BINS + 20), label="nbins")
    fits = data.draw(st.integers(1, 40), label="fits")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    edges = data.draw(st.floats(-50.0, 50.0), label="a1") + np.cumsum(
        np.concatenate([[0.0], gen.uniform(1e-3, 2.0, nbins)]))
    centers = 0.5 * (edges[:-1] + edges[1:])
    norm1 = gen.uniform(0.5, 2.0, nbins)
    us = [gen.uniform(edges[0], edges[-1], data.draw(st.integers(0, 80)))
          for _ in range(fits)]
    f = gen.integers(fits, size=4)
    k = gen.integers(nbins, size=4)
    _emptied(us, edges, f[1], k[1], 0, centers[(k[1] + 1) % nbins])  # an empty bin
    _emptied(us, edges, f[2], k[2], 1, centers[(k[2] + 1) % nbins])  # one sample
    flat = _searchsorted_bin_indices(edges, us[f[3]]) == k[3]
    us[f[3]][flat] = centers[k[3]]  # every value at the center: r22 = 0
    _emptied(us, edges, f[0], nbins - 1, 0, centers[0])  # an empty last bin
    xs = [np.tanh(u) + gen.standard_normal(u.size) * 10.0 ** gen.uniform(-6, 6) for u in us]
    if data.draw(st.booleans(), label="signed_zeros"):
        for x in xs:
            x[gen.random(x.size) < 0.5] = -0.0
    args = (edges, centers, norm1, np.concatenate(us), np.concatenate(xs), [u.size for u in us])
    got, want = _kernels.binned_qr(*args), looped_binned_qr(*args)
    assert got.R.shape == (fits, nbins, 3)
    for g, w in zip(got, want):  # the same bits, signed zeros too
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    if nbins > 1:
        assert got.R[f[0], nbins - 1, 0] == 0


# ---------------------------------------------------------------------------
# one call over a batch of fits against one call per fit
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_binned_qr_matches_one_call_per_fit(data):
    nbins = data.draw(st.integers(1, _kernels.COMPARE_MAX_BINS + 20), label="nbins")
    fits = data.draw(st.integers(1, 6), label="fits")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    edges = data.draw(st.floats(-50.0, 50.0), label="a1") + np.cumsum(
        np.concatenate([[0.0], gen.uniform(1e-3, 2.0, nbins)]))
    centers = 0.5 * (edges[:-1] + edges[1:])
    norm1 = gen.uniform(0.5, 2.0, nbins)
    us = [gen.uniform(edges[0], edges[-1], data.draw(st.integers(1, 400)))
          for _ in range(fits)]
    k = gen.integers(nbins, size=2)
    f = gen.integers(fits, size=2)
    for u in us:  # every fit holds bin k[0] ...
        u[0] = centers[k[0]]
    # ... but one, where its values move to the next bin (with one bin, nowhere)
    inside = _searchsorted_bin_indices(edges, us[f[0]]) == k[0]
    us[f[0]][inside] = centers[(k[0] + 1) % nbins]
    flat = _searchsorted_bin_indices(edges, us[f[1]]) == k[1]
    us[f[1]][flat] = centers[k[1]]  # one value in this bin of this fit: r22 = 0
    xs = [np.tanh(u) + gen.standard_normal(u.size) * 10.0 ** gen.uniform(-3, 3) for u in us]

    got = _kernels.binned_qr(edges, centers, norm1, np.concatenate(us),
                             np.concatenate(xs), [u.size for u in us])
    assert got.R.shape == (fits, nbins, 3)
    for i, (u, x) in enumerate(zip(us, xs)):
        want = first_fit(_kernels.binned_qr(edges, centers, norm1, u, x, [u.size]))
        for g, w in zip((got.R[i], got.z[i]), want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
    assert (got.R[f[0], k[0], 0] == 0) == (nbins > 1)
    assert got.R[f[1], k[1], 2] == 0


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_binned_qr_of_a_target_function_is_that_of_its_values(data):
    # the kernel pays off the bin-sorted features into its own row, with
    # the bits of the payoffs gathered from sample order
    nbins = data.draw(st.integers(1, _kernels.COMPARE_MAX_BINS + 20), label="nbins")
    fits = data.draw(st.integers(1, 6), label="fits")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    edges = data.draw(st.floats(-50.0, 50.0), label="a1") + np.cumsum(
        np.concatenate([[0.0], gen.uniform(1e-3, 2.0, nbins)]))
    centers = 0.5 * (edges[:-1] + edges[1:])
    norm1 = gen.uniform(0.5, 2.0, nbins)
    size = data.draw(st.integers(0, 300), label="size")
    u = gen.uniform(edges[0], edges[-1], fits * size)
    kind = data.draw(st.sampled_from(rl.payoff.PAYOFF_KINDS), label="kind")
    spec = rl.PayoffSpec(kind, float(np.median(edges)) if kind == "call" else None)
    calls = []

    def target(values, out=None):
        calls.append(out is not None and out.size == values.size)
        return rl.eval_payoff(spec, values, out=out)

    args = (edges, centers, norm1, u)
    got = _kernels.binned_qr(*args, target, np.full(fits, size))
    want = _kernels.binned_qr(*args, rl.eval_payoff(spec, u), np.full(fits, size))
    assert calls == ([True] if size else [])
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_batched_binned_qr_checks_the_sizes():
    e = np.linspace(0.0, 1.0, 5)
    c, ones = 0.5 * (e[1:] + e[:-1]), np.ones(4)
    with pytest.raises(ValueError, match="sizes"):
        _kernels.binned_qr(e, c, ones, np.full(5, 0.5), np.ones(5), np.array([2, 2]))


@pytest.mark.parametrize("value", [np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), -np.inf,
                                   np.inf, np.nan], ids=["below", "above", "-inf", "inf", "nan"])
def test_binned_qr_refuses_values_outside_the_domain(value):
    e = np.linspace(0.0, 1.0, 5)
    c, ones = 0.5 * (e[1:] + e[:-1]), np.ones(4)
    _kernels.binned_qr(e, c, ones, np.array([0.0, 0.5, 1.0]), np.ones(3), [3])  # the ends lie in it
    with pytest.raises(ConfigurationError, match=r"2 of 5 samples lie outside .*\[0\.0, 1\.0\]"):
        _kernels.binned_qr(e, c, ones, np.array([0.5, value, 0.25, value, 1.0]), np.ones(5), [5])
    # in a batch, one fit outside refuses the call
    with pytest.raises(ConfigurationError, match="1 of 4 samples lie outside"):
        _kernels.binned_qr(e, c, ones, np.array([0.5, 0.25, 0.5, value]), np.ones(4), [2, 2])


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_bin_indices_in_chunks_match_searchsorted(data):
    # a lookup longer than one rng block is made block by block
    edges, u, _ = _kernel_case(data, 1, _kernels.COMPARE_MAX_BINS + 20)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rl.rng, "BLOCK_SIZE", data.draw(st.integers(1, 64), label="block"))
        got = _kernels.bin_indices(edges, u)
    assert np.array_equal(got, _searchsorted_bin_indices(edges, u))
