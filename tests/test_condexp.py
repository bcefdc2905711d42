import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr

import reglater as rl
from reglater.errors import ConfigurationError
from reference import (GbmTransition, JensenViolationError, Uniform, eval_basis, fit_sample,
                       gbm_basis_condexp, jensen_check, simulate_terminal)


def quad_condexp_reference(basis, density, nodes_per_bin=256):
    """Oracle: integrate each basis function against a transition density with
    per-bin Gauss-Legendre (256 nodes)."""
    edges = basis.edges
    xg, wg = leggauss(nodes_per_bin)
    out = np.zeros(basis.dim)
    for k in range(basis.K):
        lo, hi = edges[k], edges[k + 1]
        u = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg
        w = 0.5 * (hi - lo) * wg * density(u)
        out[2 * k] = basis.norm0 * np.sum(w)
        out[2 * k + 1] = basis.norm1[k] * np.sum(w * (u - basis.centers[k]))
    return out


def normal_density(mu, s):
    return lambda u: np.exp(-0.5 * ((u - mu) / s) ** 2) / (s * np.sqrt(2 * np.pi))


def lognormal_density(spot, v):
    m = np.log(spot) - 0.5 * v * v
    return lambda u: np.exp(-0.5 * ((np.log(u) - m) / v) ** 2) / (u * v * np.sqrt(2 * np.pi))


@pytest.fixture(scope="module")
def gbm_basis():
    """Basis over a positive domain (uniform law keeps the test self-contained)."""
    return rl.build_basis(Uniform(0.25, 2.5), 6)


def test_transition_validation():
    with pytest.raises(ConfigurationError):
        rl.BrownianTransition(10.0, 10.0)
    with pytest.raises(ConfigurationError):
        GbmTransition(1.0, 10.0, sigma=-0.1)


def test_condexp_estimate_checks_length(basis_cache):
    with pytest.raises(ConfigurationError, match="coefficient length"):
        rl.condexp_estimate(rl.BrownianTransition(1.0, 10.0), basis_cache(4), np.zeros(3), 0.3)


def test_degenerate_transition_tends_to_eval_basis(basis_cache):
    basis = basis_cache(8)
    tr = rl.BrownianTransition(10.0 - 1e-12, 10.0)  # s = 1e-6
    for state in (-3.0, 0.4, 2.2):
        vec = rl.basis_condexp(tr, basis, state)
        direct = eval_basis(basis, state)
        assert np.max(np.abs(vec - direct)) < 1e-6


def test_indicator_entries_telescope_to_domain_mass(basis_cache):
    basis = basis_cache(16)
    tr = rl.BrownianTransition(1.0, 10.0)
    s = 3.0
    a1, a2 = basis.edges[0], basis.edges[-1]
    for state in (-4.0, 0.0, 1.7):
        vec = rl.basis_condexp(tr, basis, state)
        total = np.sum(vec[0::2] / basis.norm0)
        expected = ndtr((a2 - state) / s) - ndtr((a1 - state) / s)
        assert abs(total - expected) < 1e-10


def test_indicator_entries_bounded(basis_cache):
    basis = basis_cache(8)
    grid = np.linspace(-15, 15, 101)
    vecs = rl.basis_condexp(rl.BrownianTransition(2.0, 10.0), basis, grid)
    ind = vecs[:, 0::2]
    assert np.all(ind >= -1e-15)
    assert np.all(ind <= np.sqrt(8) + 1e-12)


def test_brownian_transfer_matches_quadrature(basis_cache):
    basis = basis_cache(10)
    tr = rl.BrownianTransition(1.0, 10.0)
    s = 3.0
    for state in np.linspace(-10, 10, 50):
        vec = rl.basis_condexp(tr, basis, state)
        ref = quad_condexp_reference(basis, normal_density(state, s))
        assert np.max(np.abs(vec - ref)) < 1e-6


def test_gbm_transfer_matches_quadrature(gbm_basis):
    tr = GbmTransition(1.0, 10.0, sigma=0.2)
    v = 0.2 * 3.0
    for spot in np.linspace(0.3, 2.4, 50):
        vec = gbm_basis_condexp(tr, gbm_basis, spot)
        ref = quad_condexp_reference(gbm_basis, lognormal_density(spot, v))
        assert np.max(np.abs(vec - ref)) < 1e-6


def test_gbm_transfer_needs_positive_domain(basis_cache):
    with pytest.raises(ConfigurationError):
        gbm_basis_condexp(GbmTransition(1.0, 10.0, 0.2), basis_cache(4), 1.0)


def test_estimate_is_linear_in_coefficients(basis_cache):
    basis = basis_cache(6)
    tr = rl.BrownianTransition(1.0, 10.0)
    gen = np.random.default_rng(0)
    a, b = gen.standard_normal(12), gen.standard_normal(12)
    states = gen.uniform(-5, 5, 20)
    ea = rl.condexp_estimate(tr, basis, a, states)
    eb = rl.condexp_estimate(tr, basis, b, states)
    eab = rl.condexp_estimate(tr, basis, a + b, states)
    assert np.allclose(eab, ea + eb, rtol=0, atol=1e-12)


def test_zero_coefficients_estimate_zero(basis_cache):
    tr = rl.BrownianTransition(1.0, 10.0)
    assert rl.condexp_estimate(tr, basis_cache(4), np.zeros(8), 0.3) == 0.0


def test_unit_coefficient_gives_bin_transition_mass(basis_cache):
    basis = basis_cache(4)
    coef = np.zeros(8)
    coef[0] = 1.0
    tr = rl.BrownianTransition(1.0, 10.0)
    edges = basis.edges
    for state in (-2.0, 0.5, 3.0):
        expected = np.sqrt(4) * (ndtr((edges[1] - state) / 3.0) - ndtr((edges[0] - state) / 3.0))
        assert rl.condexp_estimate(tr, basis, coef, state) == pytest.approx(expected, abs=1e-12)


def test_identity_payoff_estimate_tracks_state(w10_law, basis_cache):
    # X = W(T): fitted transfer should track the martingale E[X | W_t] = w
    # up to the fit error band plus the (documented) truncation-tail term:
    # the transferred estimate sees ghat = 0 outside the basis domain.
    dist = w10_law
    basis = basis_cache(32)
    s_cond = 3.0  # sd of W(10) given W(1)
    s = rl.simulate_conditional(dist, 200_000, seed=50)
    fit = fit_sample(rl.regress_later_fit, s.with_payoffs(s.features.copy()), basis)
    tr = rl.BrownianTransition(1.0, 10.0)
    approx = rl.approx_error_moments(rl.PayoffSpec("identity"), basis, dist)
    coef_err = rl.coefficient_error(
        fit, rl.projection_coefficients(rl.PayoffSpec("identity"), basis, dist))

    def tail_term(w):
        # E[|W_T| 1{W_T outside D} | W_t = w], exact normal partial moments
        alpha = (dist.lower - w) / s_cond
        beta = (dist.upper - w) / s_cond
        phi = lambda z: np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
        upper = w * (1.0 - ndtr(beta)) + s_cond * phi(beta)
        lower = s_cond * phi(alpha) - w * ndtr(alpha)
        return upper + lower

    band = 3.0 * np.sqrt(approx.mean_square + coef_err)
    for w in np.linspace(-2, 2, 9):
        assert abs(rl.condexp_estimate(tr, basis, fit, w) - w) < (
            band + tail_term(w) + 1e-9)


# ---------------------------------------------------------------------------
# jensen transfer check (reference.jensen_check on the package's transfer)
# ---------------------------------------------------------------------------

def _paired_sample(t, n, seed, payoff):
    """States at t, their continuations to T = 10 and the payoffs of those."""
    feat = rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=t)
    states, cont = simulate_terminal(feat, n, seed)
    return states, cont, rl.eval_payoff(payoff, cont)


def test_jensen_square_payoff(w10_law, basis_cache):
    law = w10_law
    payoff = rl.PayoffSpec("square")
    basis = basis_cache(8)
    train = rl.simulate_conditional(law, 10_000, seed=60)
    fit = fit_sample(rl.regress_later_fit,
                     train.with_payoffs(rl.eval_payoff(payoff, train.features)), basis)
    paired = _paired_sample(1.0, 10_000, 61, payoff)
    res = jensen_check(fit, basis, rl.BrownianTransition(1.0, 10.0), payoff, *paired)
    assert res.mse_cond <= res.mse_payoff + 3.0 * res.mse_payoff_stderr


def test_jensen_exact_span_both_errors_vanish(w10_law, basis_cache):
    # payoff inside the span: the fit interpolates, and the consistent truth
    # is the exact transfer of the true coefficients, so both sides vanish
    dist = w10_law
    basis = basis_cache(8)
    alpha = np.linspace(-1.0, 1.0, 16)
    payoff_fn = lambda u: rl.predict(basis, alpha, np.atleast_1d(u))
    train = rl.simulate_conditional(dist, 30_000, seed=62)
    fit = fit_sample(rl.regress_later_fit, train.with_payoffs(payoff_fn(train.features)), basis)
    tr = rl.BrownianTransition(1.0, 10.0)
    feat = rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=1.0)
    states, cont = simulate_terminal(feat, 5_000, 63)
    truth = lambda w: rl.condexp_estimate(tr, basis, alpha, w)
    res = jensen_check(fit, basis, tr, rl.PayoffSpec("identity"), states, cont,
                       payoff_fn(cont), truth=truth)
    assert res.mse_payoff < 1e-20
    assert res.mse_cond <= res.mse_payoff + 3.0 * res.mse_payoff_stderr + 1e-20


def test_jensen_degenerate_time_ratio_near_one(w10_law, basis_cache, tanh_payoff):
    # t -> T: conditioning vanishes and both errors coincide
    law = w10_law
    basis = basis_cache(8)
    t = 10.0 - 1e-6  # s = 1e-3
    train = rl.simulate_conditional(law, 20_000, seed=64)
    fit = fit_sample(rl.regress_later_fit,
                     train.with_payoffs(rl.eval_payoff(tanh_payoff, train.features)), basis)
    paired = _paired_sample(t, 20_000, 65, tanh_payoff)
    res = jensen_check(fit, basis, rl.BrownianTransition(t, 10.0), tanh_payoff, *paired)
    assert 0.9 <= res.mse_cond / res.mse_payoff <= 1.0


def test_jensen_violation_raises(basis_cache, w10_law):
    # a deliberately wrong truth makes the conditional side blow up
    law = w10_law
    basis = basis_cache(4)
    payoff = rl.PayoffSpec("identity")
    train = rl.simulate_conditional(law, 5_000, seed=66)
    fit = fit_sample(rl.regress_later_fit,
                     train.with_payoffs(rl.eval_payoff(payoff, train.features)), basis)
    paired = _paired_sample(1.0, 2_000, 67, payoff)
    with pytest.raises(JensenViolationError):
        jensen_check(fit, basis, rl.BrownianTransition(1.0, 10.0), payoff, *paired,
                     truth=lambda w: np.asarray(w) + 1e3)
