import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reglater as rl
from reglater import _kernels
from reglater.errors import ConfigurationError
from conftest import slope_of
from reference import (DegenerateDesignError, Uniform, elementwise, eval_basis, first_fit,
                       fit_sample, ols_fit, sample_blocks)

# Regress-Later of the tanh of the feature; with the payoffs tanh(feature),
# Regress-Now regresses the same targets
LATER_TANH = functools.partial(rl.regress_later_fit, target=np.tanh)
FITS = [pytest.param(LATER_TANH, id="regress_later_fit"),
        pytest.param(rl.regress_now_fit, id="regress_now_fit")]


def _tanh_sample(law, n, seed):
    s = rl.simulate_conditional(law, n, seed)
    return s.with_payoffs(np.tanh(s.features))


def _in_sample_mse(coef, basis, samp):
    """Mean squared residual of a fit's ``coef`` on the sample it was fitted to."""
    return float(np.mean((samp.payoffs - rl.predict(basis, coef, samp.features)) ** 2))


# ---------------------------------------------------------------------------
# the dense pivoted-QR reference solver (reference.ols_fit)
# ---------------------------------------------------------------------------

def test_constant_column_recovers_mean():
    y = np.array([1.0, 2.0, 4.0, 5.0])
    fit = ols_fit(np.ones((4, 1)), y)
    assert fit.coefficients[0] == pytest.approx(y.mean(), rel=1e-14)
    assert fit.rank == 1


def test_exact_interpolation_recovers_coefficients():
    gen = np.random.default_rng(0)
    A = gen.standard_normal((200, 6))
    alpha = gen.standard_normal(6)
    fit = ols_fit(A, A @ alpha)
    assert np.max(np.abs(fit.coefficients - alpha)) < 1e-8 * max(1.0, np.abs(alpha).max())
    assert fit.residual_l2 < 1e-8


def test_duplicate_column_dropped_fitted_values_unchanged():
    gen = np.random.default_rng(1)
    A = gen.standard_normal((300, 4))
    y = gen.standard_normal(300)
    base = ols_fit(A, y)
    dup = ols_fit(np.column_stack([A, A[:, 2]]), y)
    assert len(dup.dropped_columns) == 1
    assert dup.dropped_columns[0] in (2, 4)
    assert dup.rank == 4
    fitted_base = A @ base.coefficients
    fitted_dup = np.column_stack([A, A[:, 2]]) @ dup.coefficients
    assert np.max(np.abs(fitted_base - fitted_dup)) < 1e-8


def test_zero_norm_column_dropped_with_zero_coefficient():
    gen = np.random.default_rng(2)
    A = gen.standard_normal((100, 3))
    A[:, 1] = 0.0
    fit = ols_fit(A, gen.standard_normal(100))
    assert 1 in fit.dropped_columns
    assert fit.coefficients[1] == 0.0


def test_all_columns_dropped_is_degenerate():
    with pytest.raises(DegenerateDesignError):
        ols_fit(np.zeros((10, 2)), np.ones(10))


def test_residual_orthogonal_to_design():
    gen = np.random.default_rng(3)
    A = gen.standard_normal((500, 8))
    y = gen.standard_normal(500)
    fit = ols_fit(A, y)
    resid = y - A @ fit.coefficients
    assert np.max(np.abs(A.T @ resid)) <= 1e-8 * np.linalg.norm(y)


def test_fitted_values_invariant_under_column_permutation():
    gen = np.random.default_rng(4)
    A = gen.standard_normal((200, 5))
    y = gen.standard_normal(200)
    perm = np.array([3, 0, 4, 2, 1])
    f1 = ols_fit(A, y)
    f2 = ols_fit(A[:, perm], y)
    assert np.allclose(A @ f1.coefficients, A[:, perm] @ f2.coefficients, atol=1e-10)


# ---------------------------------------------------------------------------
# Regress-Later
# ---------------------------------------------------------------------------

def test_single_basis_function_payoff_recovered_exactly(basis_cache, w10_law):
    dist = w10_law
    basis = basis_cache(6)
    s = rl.simulate_conditional(dist, 5000, seed=9)
    # X = e_{0,1}(W_T)
    coef = fit_sample(rl.regress_later_fit, s, basis,
                      target=elementwise(lambda u: eval_basis(basis, u)[:, 0]))
    expected = np.zeros(12)
    expected[0] = 1.0
    assert np.max(np.abs(coef - expected)) < 1e-8


def test_in_span_payoff_zero_residual(basis_cache, w10_law):
    dist = w10_law
    K = 8
    basis = basis_cache(K)
    n = 50 * K
    s = rl.simulate_conditional(dist, n, seed=10)
    alpha = np.arange(2 * K, dtype=float) / 7.0 - 1.0
    coef = fit_sample(rl.regress_later_fit, s, basis,
                      target=elementwise(lambda u: eval_basis(basis, u) @ alpha))
    assert np.max(np.abs(coef - alpha)) < 1e-8


def test_tanh_out_of_sample_mse_near_approx_floor(basis_cache, w10_law, tanh_payoff):
    dist = w10_law
    basis = basis_cache(5)
    samp = _tanh_sample(dist, 10_000, 12)
    coef = fit_sample(rl.regress_later_fit, samp, basis, target=np.tanh)
    approx = rl.approx_error_moments(tanh_payoff, basis, dist).mean_square
    fresh = rl.simulate_conditional(dist, 100_000, 13)
    v = fresh.features
    mse = float(np.mean((np.tanh(v) - rl.predict(basis, coef, v)) ** 2))
    assert mse <= 2.0 * approx
    assert mse >= 0.5 * approx


def test_empty_bins_reported_dropped(basis_cache, w10_law):
    basis = basis_cache(8)
    edges = basis.edges
    # only populate bins 0 and 1
    gen = np.random.default_rng(5)
    u = gen.uniform(edges[0], edges[2], 400)
    coef = fit_sample(rl.regress_later_fit, rl.SampleSet(u), basis, target=np.tanh)
    assert np.all(coef[:4] != 0.0)
    assert np.all(coef[4:] == 0.0)


def test_later_in_sample_mse_non_increasing_under_refinement(w10_law, basis_cache):
    # nested equal-probability partitions: span(K) inside span(2K)
    law = w10_law
    samp = _tanh_sample(law, 20_000, 14)
    prev = np.inf
    for K in (4, 8, 16, 32):
        basis = basis_cache(K)
        mse = _in_sample_mse(fit_sample(rl.regress_later_fit, samp, basis, target=np.tanh),
                             basis, samp)
        assert mse <= prev + 1e-15
        prev = mse


def test_later_residual_variance_vanishes_jointly(w10_law, basis_cache):
    mse = []
    for n, seed, K in ((1_000, 15, 4), (100_000, 16, 32)):
        samp, basis = _tanh_sample(w10_law, n, seed), basis_cache(K)
        coef = fit_sample(rl.regress_later_fit, samp, basis, target=np.tanh)
        mse.append(_in_sample_mse(coef, basis, samp))
    assert mse[1] < 0.1 * mse[0]


# ---------------------------------------------------------------------------
# Regress-Now
# ---------------------------------------------------------------------------

def _now_problem(n, seed, K, eps=1e-4):
    """States W(1), targets X = W(10)^2; basis on the truncated law of W(1)."""
    feat_t = rl.FeatureSpec("terminal", 1.0)
    dist_t = rl.truncated_feature_law(feat_t, eps)
    basis_t = rl.build_basis(dist_t, K)
    s = rl.simulate_conditional(dist_t, n, seed)
    w = s.features
    xi = rl.rng.block_standard_normal(n, seed, "cont")
    x = (w + 3.0 * xi) ** 2
    return s.with_payoffs(x), basis_t, dist_t


def test_now_identity_target_fits_identity():
    # X = W(10), features W(1): the projection is the identity map
    feat_t = rl.FeatureSpec("terminal", 1.0)
    dist_t = rl.truncated_feature_law(feat_t, 1e-4)
    basis_t = rl.build_basis(dist_t, 8)
    n = 50_000
    s = rl.simulate_conditional(dist_t, n, seed=20)
    w = s.features
    x = w + 3.0 * rl.rng.block_standard_normal(n, 20, "cont")
    samp = s.with_payoffs(x)
    coef = fit_sample(rl.regress_now_fit, samp, basis_t)
    stderr = 3.0 * np.sqrt(2 * 8 / n)  # noise sd over sqrt(per-coef sample size), rough
    assert abs(rl.predict(basis_t, coef, 0.0)) < 4.0 * stderr
    assert _in_sample_mse(coef, basis_t, samp) > 1e-8


def test_now_mse_improves_with_sample_size():
    g0t = lambda w: np.asarray(w) ** 2 + 9.0
    wins = 0
    for seed in range(100):
        errs = {}
        for n in (1_000, 100_000):
            samp, basis_t, dist_t = _now_problem(n, 3000 + seed, K=8)
            fit = fit_sample(rl.regress_now_fit, samp, basis_t)
            approx = rl.approx_error_moments(g0t, basis_t, dist_t)
            errs[n] = approx.mean_square + rl.coefficient_error(
                fit, rl.projection_coefficients(g0t, basis_t, dist_t))
        wins += errs[100_000] < errs[1_000]
    assert wins >= 95


def test_now_in_span_measurable_payoff_has_no_projection_error():
    feat_t = rl.FeatureSpec("terminal", 1.0)
    dist_t = rl.truncated_feature_law(feat_t, 1e-4)
    basis_t = rl.build_basis(dist_t, 6)
    s = rl.simulate_conditional(dist_t, 4000, seed=22)
    x = eval_basis(basis_t, s.features)[:, 0]  # t-measurable, in span
    samp = s.with_payoffs(x)
    assert _in_sample_mse(fit_sample(rl.regress_now_fit, samp, basis_t), basis_t, samp) < 1e-8


# ---------------------------------------------------------------------------
# the fits make no prediction pass
# ---------------------------------------------------------------------------

def test_fits_make_no_bin_lookup(monkeypatch, basis_cache, w10_law):
    calls = []
    lookup = _kernels.bin_indices

    def counting(edges, u):
        calls.append(np.size(u))
        return lookup(edges, u)

    monkeypatch.setattr(_kernels, "bin_indices", counting)
    samp = _tanh_sample(w10_law, 5000, 30)
    fit_sample(rl.regress_later_fit, samp, basis_cache(8), target=np.tanh)
    fit_sample(rl.regress_now_fit, samp, basis_cache(8))
    assert calls == []
    rl.predict(basis_cache(8), np.zeros(16), samp.features)
    assert calls == [5000]  # predict looks the kernel up at call time


# ---------------------------------------------------------------------------
# the block-wise fit against one kernel pass over the whole sample
# ---------------------------------------------------------------------------

def _fold_case(gen, K, block, n, in_span):
    """n samples, read in consecutive blocks of ``block``, on a uniform-law
    basis.  One bin holds one distinct value throughout (its linear column
    is dropped), one is empty in some blocks (its values move to that one
    distinct value), and one holds one distinct value in the first block
    only (a degenerate linear column there, not overall)."""
    basis = rl.build_basis(Uniform(-1.0, 2.0), K)
    edges = basis.edges
    k = gen.integers(0, K, n)
    u = edges[k] + gen.uniform(0.0, 1.0, n) * (edges[k + 1] - edges[k])
    j = np.arange(n) // block
    one, sparse, first = gen.permutation(K)[:3]
    distinct = edges[one] + 0.37 * (edges[one + 1] - edges[one])
    absent = gen.random(j[-1] + 1) < 0.5
    u[(k == one) | ((k == sparse) & absent[j])] = distinct
    u[(k == first) & (j == 0)] = edges[first] + 0.81 * (edges[first + 1] - edges[first])
    if in_span:
        x = rl.predict(basis, gen.standard_normal(2 * K), u)
    else:
        x = np.sin(3.0 * u) + gen.standard_normal(n)
    return basis, rl.SampleSet(u, x), one


def _assert_fold_matches_single_pass(basis, samp, block, one_distinct_bin):
    """The factors and fit of ``samp`` in blocks of ``block`` samples against
    a single ``_kernels.binned_qr`` pass and a one-block fit.

    Each bin agrees to 1e-12 relative, times the squared condition number of
    the bin's design (``col / r22``; 1 where the linear column is dropped):
    both results are backward stable, so a bin holding two nearly equal
    values may differ by that much.
    """
    u, x = samp.features, samp.payoffs
    ref = first_fit(_kernels.binned_qr(basis.edges, basis.centers, basis.norm1, u, x,
                                       [u.size]))
    idx = _kernels.bin_indices(basis.edges, u)
    got, n = rl.regress._binned_factors(sample_blocks(samp, block), basis, 1)
    got = first_fit(got)
    assert n == samp.n
    # the same sample count in every bin: R[:, 0] = sqrt(K count)
    assert np.array_equal(np.rint(got.R[:, 0] ** 2 / basis.K), np.bincount(idx, minlength=basis.K))
    col = np.maximum(ref.R[:, 0], np.hypot(ref.R[:, 1], ref.R[:, 2]))  # design norm
    xk = np.sqrt(np.bincount(idx, weights=x * x, minlength=basis.K))  # target norm in the bin
    full = ref.R[:, 2] > 1e-8 * col  # the linear column is kept
    cond = np.ones_like(col)
    cond[full] = col[full] / ref.R[full, 2]
    tol = 1e-12 * cond**2

    def close(a, b, scale, rows=slice(None)):
        assert np.all((np.abs(a - b) <= tol * scale)[rows])

    close(got.R[:, 0], ref.R[:, 0], col)
    close(got.R[:, 1], ref.R[:, 1], col)
    close(got.z[:, 0], ref.z[:, 0], xk)
    close(got.R[:, 2], ref.R[:, 2], col, full)
    close(got.z[:, 1], ref.z[:, 1], xk, full)

    blocked = fit_sample(rl.regress_now_fit, samp, basis, block=block)
    single = fit_sample(rl.regress_now_fit, samp, basis, block=samp.n)
    assert blocked[2 * one_distinct_bin + 1] == 0.0  # the dropped linear column
    assert np.array_equal(blocked == 0.0, single == 0.0)  # the same columns dropped
    pairs = single.reshape(-1, 2)
    worst = np.abs(blocked.reshape(-1, 2) - pairs).max(axis=1)
    close(worst, 0.0, np.abs(pairs).max(axis=1) + xk / np.where(col > 0, col, 1.0))


@settings(max_examples=60, deadline=None)
@given(K=st.integers(3, 80), block=st.integers(16, 256),
       size=st.sampled_from(["block", "block+1", "3*block+17"]), in_span=st.booleans(),
       merge_blocks=st.sampled_from([1, 2, rl.regress.MERGE_BLOCKS]),
       seed=st.integers(0, 2**32 - 1))
def test_blockwise_fit_matches_single_pass(K, block, size, in_span, merge_blocks, seed):
    n = {"block": block, "block+1": block + 1, "3*block+17": 3 * block + 17}[size]
    basis, samp, one = _fold_case(np.random.default_rng(seed), K, block, n, in_span)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rl.regress, "MERGE_BLOCKS", merge_blocks)  # merges of merged factors too
        _assert_fold_matches_single_pass(basis, samp, block, one)


@pytest.mark.parametrize("extra", [0, 1, 2 * rl.rng.BLOCK_SIZE + 17])
def test_blockwise_fit_at_the_rng_block_size(extra):
    n = rl.rng.BLOCK_SIZE + extra
    basis, samp, one = _fold_case(np.random.default_rng(extra), 12, rl.rng.BLOCK_SIZE, n, False)
    _assert_fold_matches_single_pass(basis, samp, rl.rng.BLOCK_SIZE, one)


def test_single_block_fit_is_the_kernel_result(basis_cache, w10_law):
    # with one block nothing is merged: the fit reads the kernel's own bits,
    # and a target function pays off the block with the bits of its payoffs
    samp = _tanh_sample(w10_law, rl.rng.BLOCK_SIZE, 31)
    basis = basis_cache(8)
    ref = _kernels.binned_qr(basis.edges, basis.centers, basis.norm1,
                             samp.features, samp.payoffs, [samp.n])
    for target in (None, np.tanh):
        got, n = rl.regress._binned_factors(sample_blocks(samp), basis, 1, target)
        assert n == samp.n
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 80), fits=st.integers(1, 5), n=st.integers(3, 400),
       seed=st.integers(0, 2**32 - 1))
def test_batched_fits_are_the_fits_of_each_sample_alone(K, fits, n, seed):
    # one fit of the batch holds one distinct value: it alone keeps one column;
    # Regress-Later regresses a function of the feature, Regress-Now a noisy
    # payoff
    gen = np.random.default_rng(seed)
    basis = rl.build_basis(Uniform(-1.0, 2.0), K)
    samples = [rl.SampleSet(u, np.sin(3.0 * u) + gen.standard_normal(n))
               for u in gen.uniform(-1.0, 2.0, (fits, n))]
    if fits > 1:
        samples[1] = rl.SampleSet(np.full(n, 0.5), np.ones(n))
    batch = rl.SampleSet.joined(samples)
    wave = elementwise(lambda u: np.sin(3.0 * u))
    later = rl.regress_later_fit([batch], basis, fits, wave)
    now = rl.regress_now_fit([batch], basis, fits=fits)
    for coef in (later, now):
        assert coef.dtype == np.float64 and coef.shape == (fits, basis.dim)
        assert not coef.flags.writeable
    for sample, got_later, got_now in zip(samples, later, now):
        alone = fit_sample(rl.regress_later_fit, sample, basis, target=wave)
        assert got_later.tobytes() == alone.tobytes()
        assert got_now.tobytes() == fit_sample(rl.regress_now_fit, sample, basis).tobytes()
    if fits > 1:
        assert np.count_nonzero(later[1]) == np.count_nonzero(now[1]) == 1


@pytest.mark.parametrize("fits", [0, -1, True, None, 1.0, "1"])
def test_fits_must_be_a_positive_int(fits, basis_cache):
    samp = rl.SampleSet(np.linspace(-1.0, 1.0, 6), np.ones(6))
    for fit in (LATER_TANH, rl.regress_now_fit):
        with pytest.raises(ConfigurationError, match="fits: must be a positive int"):
            fit([samp], basis_cache(2), fits=fits)


def test_batched_fit_needs_equal_shares(basis_cache):
    samp = rl.SampleSet(np.zeros(7), np.zeros(7))
    with pytest.raises(ConfigurationError, match="equal size"):
        rl.regress_later_fit([samp], basis_cache(2), 2, np.tanh)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_later_refuses_a_non_finite_target(bad, basis_cache):
    # one sample's target is not finite: the whole batch is refused
    basis = basis_cache(4)
    u = np.linspace(basis.edges[0], basis.edges[-1], 9)
    hit = u[4]
    target = elementwise(lambda v: np.where(v == hit, bad, np.tanh(v)))
    rl.regress_later_fit([rl.SampleSet(u)], basis, 1, np.tanh)
    with pytest.raises(ConfigurationError, match="non-finite payoff values"):
        rl.regress_later_fit([rl.SampleSet(u)], basis, 1, target)


def test_later_target_must_be_a_function(basis_cache):
    u = np.linspace(-1.0, 1.0, 6)
    with pytest.raises(ConfigurationError, match="target: must be an elementwise function"):
        rl.regress_later_fit([rl.SampleSet(u)], basis_cache(2), 1, np.tanh(u))


# ---------------------------------------------------------------------------
# the fits' refusals: a sample outside the basis domain, and no sample
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fit", FITS)
@pytest.mark.parametrize("end,side", [(0, -np.inf), (-1, np.inf)], ids=["below", "above"])
def test_fits_refuse_a_sample_outside_the_domain(fit, end, side, basis_cache):
    basis = basis_cache(4)
    u = np.linspace(basis.edges[0], basis.edges[-1], 9)  # both ends lie in the domain
    fit([rl.SampleSet(u, np.tanh(u))], basis, fits=1)
    u = u.copy()
    u[4] = np.nextafter(basis.edges[end], side)
    with pytest.raises(ConfigurationError, match="1 of 9 samples lie outside"):
        fit([rl.SampleSet(u, np.tanh(u))], basis, fits=1)


@pytest.mark.parametrize("fit", FITS)
def test_one_fit_outside_the_domain_refuses_the_batch(fit, basis_cache):
    # fit 1 of three lies above the domain in the second block
    basis = basis_cache(4)
    u = np.linspace(basis.edges[0], basis.edges[-1], 6)
    ok = rl.SampleSet(np.tile(u, 3), np.ones(18))
    bad = rl.SampleSet(np.concatenate([u, np.full(6, basis.edges[-1] + 1.0), u]), np.ones(18))
    with pytest.raises(ConfigurationError, match="6 of 18 samples lie outside"):
        fit([ok, bad], basis, fits=3)


@pytest.mark.parametrize("fit", FITS)
@pytest.mark.parametrize("blocks", [0, 1, 3], ids=lambda m: f"{m}_empty_blocks")
def test_fits_need_a_sample(fit, blocks, basis_cache):
    empty = rl.SampleSet(np.zeros(0), np.zeros(0))
    with pytest.raises(ConfigurationError, match="need at least one sample"):
        fit([empty] * blocks, basis_cache(4), fits=2)


# ---------------------------------------------------------------------------
# coefficient error
# ---------------------------------------------------------------------------

def test_coefficient_error_zero_for_exact_span(basis_cache, w10_law):
    dist = w10_law
    basis = basis_cache(4)
    s = rl.simulate_conditional(dist, 2000, seed=23)
    g = lambda u: rl.predict(basis, np.ones(8), np.atleast_1d(u))
    fit = fit_sample(rl.regress_later_fit, s, basis, target=elementwise(g))
    assert rl.coefficient_error(fit, rl.projection_coefficients(g, basis, dist)) < 1e-12


def test_coefficient_error_shrinks_with_n(basis_cache, w10_law, tanh_payoff):
    dist = w10_law
    basis = basis_cache(5)
    alpha = rl.projection_coefficients(tanh_payoff, basis, dist)
    errs = {1_000: [], 100_000: []}
    for seed in range(50):
        for n in errs:
            samp = rl.simulate_conditional(dist, n, 5000 + seed + n)
            fit = fit_sample(rl.regress_later_fit, samp, basis, target=np.tanh)
            errs[n].append(rl.coefficient_error(fit, alpha))
    assert np.median(errs[100_000]) < np.median(errs[1_000])


def test_now_coefficient_error_scales_like_one_over_n():
    g0t = lambda w: np.asarray(w) ** 2 + 9.0
    ns = (1_000, 10_000, 100_000)
    medians = []
    feat_t = rl.FeatureSpec("terminal", 1.0)
    dist_t = rl.truncated_feature_law(feat_t, 1e-4)
    basis_t = rl.build_basis(dist_t, 8)
    alpha = rl.projection_coefficients(g0t, basis_t, dist_t)
    for n in ns:
        errs = []
        for seed in range(15):
            samp, _, _ = _now_problem(n, 7000 + seed, K=8)
            fit = fit_sample(rl.regress_now_fit, samp, basis_t)
            errs.append(rl.coefficient_error(fit, alpha))
        medians.append(np.median(errs))
    assert -1.3 <= slope_of(ns, medians) <= -0.7
