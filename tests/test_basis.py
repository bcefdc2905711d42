import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import reglater as rl
from reglater import _kernels
from reglater.basis import QUAD_TOL, gauss_legendre
from reglater.config import _sweep_laws, load_config
from reglater.errors import BasisConstructionError
from conftest import slope_of
from reference import (Uniform, adaptive_bin_quad_per_bin, basis_from_json_dict, eval_basis,
                       fit_sample, gram_diagnostics, quadrature_gram)


UNIF = Uniform(0.0, 1.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# bin edges
# ---------------------------------------------------------------------------

def test_uniform_partition_quantile_edges():
    basis = rl.build_basis(UNIF, 4)
    assert np.allclose(basis.edges, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-14)


def test_symmetric_truncnorm_middle_edge_is_zero():
    a = 3.0 * np.sqrt(10.0)
    dist = rl.TruncatedNormal(10.0, -a, a)
    basis = rl.build_basis(dist, 2)
    assert abs(basis.edges[1]) < 1e-12


def test_truncnorm_bin_masses_recomputed(w10_law):
    dist = w10_law
    basis = rl.build_basis(dist, 10)
    for lo, hi in zip(basis.edges[:-1], basis.edges[1:]):
        mass = dist.cdf(hi) - dist.cdf(lo)
        assert abs(mass - 0.1) < 1e-12


# ---------------------------------------------------------------------------
# moments and normalization constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", [1, 4, 16, 64])
def test_uniform_centers_and_norms(K):
    basis = rl.build_basis(UNIF, K)
    expect_c = (2 * np.arange(1, K + 1) - 1) / (2.0 * K)
    assert np.allclose(basis.centers, expect_c, atol=1e-13)
    assert basis.norm0 == np.sqrt(K)
    assert np.allclose(basis.norm1, np.sqrt(12.0 * K**3), rtol=1e-12)


def test_far_tail_window_builds_an_orthonormal_basis():
    # a window 29 sd into the tail, finely split: each bin's moments are
    # integrated about its own center, so nothing cancels against the far mean
    dist = rl.TruncatedNormal(1.0, -30.0, -29.0)
    basis = rl.build_basis(dist, 256)
    assert np.max(np.abs(quadrature_gram(basis, dist) - np.eye(512))) <= 1e-9


@pytest.mark.parametrize("K", [128, 256, 512])
def test_fine_bases_are_orthonormal_to_rounding(K, w10_law):
    G = quadrature_gram(rl.build_basis(w10_law, K), w10_law)
    assert np.max(np.abs(G - np.eye(2 * K))) <= 1e-12


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_sweep_samples_lie_in_their_basis_domain(path):
    # the contract the fits rest on (the kernel refuses a sample outside):
    # every law a shipped sweep fits on puts its basis's ends at its own, and
    # draws inside them
    cfg = load_config(path)
    for law in _sweep_laws(cfg):
        u = rl.simulate_conditional(law, 2 * rl.rng.BLOCK_SIZE, cfg.seed).features
        for K in cfg.K_list:
            edges = rl.build_basis(law, K).edges
            assert (edges[0], edges[-1]) == (law.lower, law.upper)
            assert np.all(_kernels.bin_indices(edges, u) >= 0)


def test_eval_basis_uniform_example():
    basis = rl.build_basis(UNIF, 4)
    vec = eval_basis(basis, 0.3)
    assert vec.shape == (8,)
    nz = np.nonzero(vec)[0]
    assert list(nz) == [2, 3]  # bin 2 owns [0.25, 0.5)
    assert vec[2] == pytest.approx(2.0, rel=1e-14)
    assert vec[3] == pytest.approx(np.sqrt(12.0 * 64.0) * (0.3 - 0.375), rel=1e-12)


def test_eval_basis_right_edge_owned_by_last_bin():
    basis = rl.build_basis(UNIF, 4)
    vec = eval_basis(basis, 1.0)
    assert vec[6] == pytest.approx(2.0)
    assert np.count_nonzero(vec[:6]) == 0


def test_eval_basis_outside_domain_is_zero():
    basis = rl.build_basis(UNIF, 4)
    assert np.all(eval_basis(basis, -0.1) == 0.0)
    assert np.all(eval_basis(basis, 1.1) == 0.0)


def test_eval_basis_at_most_two_nonzeros_and_indicator_partition(w10_law, basis_cache):
    basis = basis_cache(16)
    gen = np.random.default_rng(3)
    us = gen.uniform(basis.edges[0], basis.edges[-1], 500)
    mat = eval_basis(basis, us)
    assert np.max(np.count_nonzero(mat, axis=1)) <= 2
    indicator_sq = np.sum((mat[:, 0::2] / np.sqrt(16)) ** 2, axis=1)
    assert np.allclose(indicator_sq, 1.0, atol=1e-14)


# ---------------------------------------------------------------------------
# orthonormality and Gram diagnostics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", [2, 5, 16, 64])
def test_quadrature_gram_identity_uniform(K):
    G = quadrature_gram(rl.build_basis(UNIF, K), UNIF)
    assert np.max(np.abs(G - np.eye(2 * K))) < 1e-8


@pytest.mark.parametrize("K", [1, 5, 16])
def test_bin_quadrature_integrates_each_bin(K, w10_law, basis_cache):
    basis = basis_cache(K)
    nodes, weights = rl.bin_quadrature(basis, w10_law, 24)
    assert nodes.shape == weights.shape == (24 * K,)
    edges = basis.edges
    per_bin = nodes.reshape(K, 24)
    assert np.all((per_bin > edges[:-1, None]) & (per_bin < edges[1:, None]))
    # each bin carries 1/K of the law, and its mean is the basis center
    masses = weights.reshape(K, 24).sum(axis=1)
    assert np.max(np.abs(masses - 1.0 / K)) < 1e-12
    means = (weights * nodes).reshape(K, 24).sum(axis=1) / masses
    assert np.max(np.abs(means - basis.centers)) < 1e-10


# A well-formed two-bin basis on [0, 1], and one field of it changed per case.
VALID_BASIS = {"edges": [0.0, 0.5, 1.0], "centers": [0.25, 0.75], "norm1": [1.0, 1.0],
               "mass": 1.0}


@pytest.mark.parametrize("field,value,message", [
    ("edges", [0.0, 0.25, 0.5, 1.0], "per-bin arrays must have length K"),  # K+2 edges
    ("edges", [0.0, 0.0, 1.0], "strictly increasing"),
    ("mass", 0.0, "domain mass"),
    ("mass", -0.5, "domain mass"),
    ("mass", 1.5, "domain mass"),
    ("centers", [0.25, 0.25], "inside their bins"),
    ("centers", [0.25, np.nan], "inside their bins"),
    ("norm1", [1.0, 0.0], "positive and finite"),
    ("norm1", [1.0, np.nan], "positive and finite"),
], ids=["K+2_edges", "repeated_edge", "mass=0.0", "mass=-0.5", "mass=1.5",
        "center_outside_its_bin", "center_nan", "norm1=0", "norm1=nan"])
def test_basis_refuses_a_malformed_construction(field, value, message):
    with pytest.raises(BasisConstructionError, match=message):
        rl.SieveBasis(**{**VALID_BASIS, field: value})


def test_basis_fields_are_read_only_and_norm0_is_derived():
    assert [f.name for f in dataclasses.fields(rl.SieveBasis)] == list(VALID_BASIS)
    basis = rl.SieveBasis(**VALID_BASIS)
    assert (basis.K, basis.dim, basis.norm0) == (2, 4, np.sqrt(2))
    for arr in (basis.edges, basis.centers, basis.norm1):
        assert arr.dtype == np.float64 and not arr.flags.writeable


@pytest.mark.parametrize("K", [2, 5, 16, 64])
def test_quadrature_gram_identity_truncnorm(K, w10_law, basis_cache):
    dist = w10_law
    G = quadrature_gram(basis_cache(K), dist)
    assert np.max(np.abs(G - np.eye(2 * K))) < 1e-8


def test_gram_diagnostics_on_sample_converges(w10_law, basis_cache):
    dist = w10_law
    basis = basis_cache(5)
    wins = 0
    lmins = []
    for seed in range(100):
        big = rl.simulate_conditional(dist, 100_000, 1000 + seed)
        small = rl.simulate_conditional(dist, 1_000, 2000 + seed)
        fro_big, lmin_big = gram_diagnostics(basis, big)
        fro_small, _ = gram_diagnostics(basis, small)
        wins += fro_big < fro_small
        lmins.append(lmin_big)
    assert wins >= 95
    assert abs(np.median(lmins) - 1.0) < 0.1


def test_gram_diagnostics_warns_when_rank_deficient(basis_cache):
    basis = basis_cache(16)
    with pytest.warns(RuntimeWarning):
        gram_diagnostics(basis, np.linspace(-1, 1, 8))


# ---------------------------------------------------------------------------
# h_tilde
# ---------------------------------------------------------------------------

def test_h_tilde_uniform_golden_value():
    # direct integration over each bin gives E[(e^T e)^2] / K^2 = 3 + 9/5 exactly
    for K in (4, 16, 64):
        basis = rl.build_basis(UNIF, K)
        val = rl.h_tilde(basis, UNIF) / K**2
        assert val == pytest.approx(4.8, rel=1e-12)
        assert 3.0 <= val <= 4.8 + 1e-9


def test_h_tilde_decreases_along_admissible_growth():
    # K proportional to N^0.49 keeps the net shrinking
    vals = []
    for n in (10**3, 10**4, 10**5):
        K = int(n**0.49)
        basis = rl.build_basis(UNIF, K)
        vals.append(rl.h_tilde(basis, UNIF) / n)
    assert vals[0] > vals[1] > vals[2]


def test_h_tilde_matches_brute_force_quadrature(w10_law, basis_cache):
    # independent check: integrate (e^T e)^2 on a fine global grid
    dist = w10_law
    basis = basis_cache(6)
    edges = basis.edges
    total = 0.0
    from numpy.polynomial.legendre import leggauss
    xg, wg = leggauss(200)
    for lo, hi in zip(edges[:-1], edges[1:]):
        u = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg
        e = eval_basis(basis, u)
        ete = np.sum(e * e, axis=1)
        total += 0.5 * (hi - lo) * np.sum(wg * ete**2 * dist.density(u))
    n = 12345
    assert rl.h_tilde(basis, dist) / n == pytest.approx(total / n, rel=1e-9)


@pytest.mark.parametrize("eval_time", [1.0, 10.0])
def test_h_tilde_on_narrow_bins_matches_scipy_quad(eval_time):
    # domain_epsilon 0.999: four bins on the central 0.1% of the law, each
    # about 6e-4 sd wide; the reference integrates every moment with
    # scipy.integrate.quad about the bin's own quad-computed mean
    from scipy.integrate import quad

    dist = rl.truncated_feature_law(rl.FeatureSpec("terminal", eval_time), 0.999)
    K = 4
    basis = rl.build_basis(dist, K)
    edges = basis.edges
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        def moment(f):
            return quad(lambda u: f(u) * float(dist.density(u)), lo, hi,
                        epsabs=0.0, epsrel=1e-13)[0]

        m0, m1 = moment(lambda u: 1.0), moment(lambda u: u)
        c = m1 / m0
        m2, m4 = moment(lambda u: (u - c) ** 2), moment(lambda u: (u - c) ** 4)
        total += K * K * m0 + 2.0 * K * m2 / m2 + m4 / m2 ** 2
    assert rl.h_tilde(basis, dist) == pytest.approx(total, rel=1e-9)


# ---------------------------------------------------------------------------
# deterministic approximation error
# ---------------------------------------------------------------------------

def test_in_span_payoff_has_zero_approx_error(basis_cache, w10_law):
    dist = w10_law
    basis = basis_cache(8)
    alpha = np.zeros(16)
    alpha[[0, 3, 11]] = (0.7, -1.2, 0.4)
    g = lambda u: eval_basis(basis, np.atleast_1d(u)) @ alpha
    moments = rl.approx_error_moments(g, basis, dist)
    assert moments.l2 < 1e-10
    assert moments.fourth_root < 1e-10


def test_tanh_approx_rate_windows(w10_law, basis_cache, tanh_payoff):
    dist = w10_law
    Ks = [4, 8, 16, 32, 64]
    l2s, fourths = [], []
    for K in Ks:
        m = rl.approx_error_moments(tanh_payoff, basis_cache(K), dist)
        l2s.append(m.l2)
        fourths.append(m.fourth_root)
    assert -4.5 <= slope_of(Ks, fourths) <= -3.5
    assert -2.3 <= slope_of(Ks, l2s) <= -1.7


def test_ratio_moment_bound_grows_linearly(w10_law, basis_cache):
    # max_k E[1_k (U-c)^4] / (E[1_k (U-c)^2])^2 should grow like K
    dist = w10_law
    Ks = [4, 8, 16, 32, 64]
    ratios = []
    for K in Ks:
        m = rl.bin_central_moments(basis_cache(K), dist)
        ratios.append(np.max(m[:, 4] / m[:, 2] ** 2))
    assert 0.8 <= slope_of(Ks, ratios) <= 1.2


def test_projection_coefficients_match_sample_projection(w10_law, basis_cache, tanh_payoff):
    # quadrature alpha should agree with a huge-sample regression closely
    dist = w10_law
    basis = basis_cache(4)
    alpha = rl.projection_coefficients(tanh_payoff, basis, dist)
    samp = rl.simulate_conditional(dist, 400_000, seed=77)
    fit = fit_sample(rl.regress_later_fit,
                     samp.with_payoffs(rl.eval_payoff(tanh_payoff, samp.features)), basis)
    assert np.max(np.abs(fit - alpha)) < 0.01


def test_basis_json_roundtrip(basis_cache):
    basis = basis_cache(5)
    back = basis_from_json_dict(json.loads(basis.to_json()))
    assert np.array_equal(back.edges, basis.edges)
    assert np.array_equal(back.centers, basis.centers)
    assert np.array_equal(back.norm1, basis.norm1)
    assert back.mass == basis.mass


def test_quadrature_tolerance_honoured(w10_law, basis_cache, tanh_payoff):
    # doubling the quadrature start order moves integrals by less than QUAD_TOL-ish
    dist = w10_law
    basis = basis_cache(8)
    a16 = rl.projection_coefficients(tanh_payoff, basis, dist)
    from reglater.basis import _adaptive_bin_quad
    a64 = _adaptive_bin_quad(lambda ks, u: np.tanh(u), basis.edges, dist, start=64)
    for k in (0, 4, 7):
        assert abs(a64[k, 0] - a16[2 * k] / basis.norm0) < 10 * QUAD_TOL


@pytest.mark.parametrize("K", [1, 7, 64])
def test_adaptive_quadrature_of_all_bins_is_the_per_bin_loop(K, w10_law, tanh_payoff):
    # one array pass over the bins still being refined gives each bin the
    # bits of its own loop, for one integrand row and for a stack of them
    from reglater.basis import _adaptive_bin_quad

    edges = rl.build_basis(w10_law, K).edges
    for integrand in (lambda ks, u: np.tanh(u),
                      lambda ks, u: np.stack([np.tanh(u), (u - edges[ks, None]) ** 3], axis=1)):
        assert np.array_equal(_adaptive_bin_quad(integrand, edges, w10_law),
                              adaptive_bin_quad_per_bin(integrand, edges, w10_law))


def test_gauss_legendre_rule_is_cached_and_read_only():
    from numpy.polynomial.legendre import leggauss
    for n in (16, 24, 64, 2048):
        xg, wg = gauss_legendre(n)
        want = leggauss(n)
        assert np.array_equal(xg, want[0]) and np.array_equal(wg, want[1])
        assert not xg.flags.writeable and not wg.flags.writeable
        with pytest.raises(ValueError):
            xg[0] = 0.0
        again = gauss_legendre(n)
        assert again[0] is xg and again[1] is wg


def test_quadrature_bits_do_not_depend_on_the_rule_cache(w10_law, basis_cache, tanh_payoff):
    dist = w10_law
    basis = basis_cache(6)
    gauss_legendre.cache_clear()
    cold = (rl.projection_coefficients(tanh_payoff, basis, dist),
            rl.approx_error_moments(tanh_payoff, basis, dist))
    assert gauss_legendre.cache_info().currsize > 0
    warm = (rl.projection_coefficients(tanh_payoff, basis, dist),
            rl.approx_error_moments(tanh_payoff, basis, dist))
    assert gauss_legendre.cache_info().hits > 0
    assert cold[0].tobytes() == warm[0].tobytes()
    assert (cold[1].l2, cold[1].fourth_root) == (warm[1].l2, warm[1].fourth_root)
