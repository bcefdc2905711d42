from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

import reglater as rl
from reglater.errors import ConfigurationError, SamplingError


# ---------------------------------------------------------------------------
# terminal simulation
# ---------------------------------------------------------------------------

def test_brownian_terminal_mean_within_band(brownian10, terminal10):
    s = rl.simulate_terminal(brownian10, terminal10, 50_000, seed=11)
    w = s.feature_column()
    assert abs(w.mean()) < 4.0 * np.sqrt(10.0 / w.size)


def test_brownian_terminal_variance_closed_form(brownian10, terminal10):
    s = rl.simulate_terminal(brownian10, terminal10, 1_000_000, seed=3)
    assert abs(s.feature_column().var() - 10.0) < 0.02 * 10.0


def test_gbm_terminal_is_martingale():
    proc = rl.ProcessSpec("gbm", horizon=10.0, volatility=0.2)
    s = rl.simulate_terminal(proc, rl.FeatureSpec("terminal", 10.0), 400_000, seed=5)
    v = s.feature_column()
    stderr = v.std(ddof=1) / np.sqrt(v.size)
    assert abs(v.mean() - 1.0) < 3.0 * stderr


def test_brownian_terminal_matches_normal_cdf(brownian10, terminal10):
    s = rl.simulate_terminal(brownian10, terminal10, 100_000, seed=17)
    stat = kstest(s.feature_column(), "norm", args=(0.0, np.sqrt(10.0))).statistic
    # 1% critical value of the one-sample KS statistic
    assert stat < 1.63 / np.sqrt(s.n)


def test_simulation_is_deterministic(brownian10, terminal10):
    a = rl.simulate_terminal(brownian10, terminal10, 4096, seed=123)
    b = rl.simulate_terminal(brownian10, terminal10, 4096, seed=123)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(
        a.features, rl.simulate_terminal(brownian10, terminal10, 4096, seed=124).features)


def test_pair_feature_has_correlated_columns(brownian10):
    feat = rl.FeatureSpec("pair_u_T", eval_time=10.0, intermediate_time=1.0)
    s = rl.simulate_terminal(brownian10, feat, 200_000, seed=2)
    wu, wt = s.features[:, 0], s.features[:, 1]
    assert abs(wu.var() - 1.0) < 0.05
    assert abs(wt.var() - 10.0) < 0.3
    # Cov(W_u, W_T) = u
    assert abs(np.mean(wu * wt) - 1.0) < 0.05


def test_inconsistent_pair_is_refused(brownian10):
    with pytest.raises(ConfigurationError):
        rl.simulate_terminal(brownian10, rl.FeatureSpec("basket_sum", 1.0), 10, 0)
    with pytest.raises(ConfigurationError):
        rl.simulate_terminal(rl.ProcessSpec("gbm", 10.0, volatility=0.2),
                             rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=1.0), 10, 0)


@pytest.mark.parametrize("vol", [None, 0.0, -0.2, np.inf, np.nan])
def test_gbm_needs_a_finite_positive_volatility(vol):
    with pytest.raises(ConfigurationError, match="process.volatility"):
        rl.ProcessSpec("gbm", 10.0, volatility=vol)


@pytest.mark.parametrize("kind,horizon", [("brownian", 10.0), ("basket_tree", 2)])
def test_volatility_refused_where_no_sampler_reads_it(kind, horizon):
    with pytest.raises(ConfigurationError, match="process.volatility: not meaningful"):
        rl.ProcessSpec(kind, horizon, volatility=0.2)
    assert rl.ProcessSpec(kind, horizon).volatility is None


def test_feature_dim_follows_the_kind():
    assert rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=1.0).dim == 2
    for kind in ("terminal", "path_integral", "basket_sum"):
        assert rl.FeatureSpec(kind, 2.0).dim == 1


def test_feature_times_are_positive():
    # at time 0 every feature is a constant, with no law to fit on
    with pytest.raises(ConfigurationError, match="feature.eval_time"):
        rl.FeatureSpec("terminal", 0.0)
    with pytest.raises(ConfigurationError, match="feature.intermediate_time"):
        rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=0.0)


def test_sampleset_is_immutable(brownian10, terminal10):
    s = rl.simulate_terminal(brownian10, terminal10, 100, seed=1)
    with pytest.raises(ValueError):
        s.features[0, 0] = 99.0


def test_joined_samples_lie_back_to_back_unchecked(monkeypatch):
    a = rl.SampleSet(np.array([[1.0], [2.0]]), np.array([10.0, 20.0]), 5, 2, meta={"k": 1})
    b = rl.SampleSet(np.array([[3.0]]), np.array([30.0]), 6, 1)
    bare = rl.SampleSet(np.array([[4.0]]), None, 7, 1)
    assert rl.SampleSet.joined([a]) is a
    monkeypatch.setattr(rl.SampleSet, "__post_init__", lambda self: pytest.fail("checked"))
    ab = rl.SampleSet.joined([a, b])
    assert ab.n == 3 and ab.seed == 5 and dict(ab.meta) == {}
    assert np.array_equal(ab.feature_column(), [1.0, 2.0, 3.0])
    assert np.array_equal(ab.payoffs, [10.0, 20.0, 30.0])
    assert not ab.features.flags.writeable and not ab.payoffs.flags.writeable
    assert rl.SampleSet.joined([a, bare]).payoffs is None


# ---------------------------------------------------------------------------
# conditional simulation
# ---------------------------------------------------------------------------

def test_conditional_acceptance_rate_matches_mass(brownian10, terminal10, w10_law):
    _, dom = w10_law
    s = rl.simulate_conditional(brownian10, terminal10, dom, 100_000, seed=21)
    assert abs(s.meta["acceptance_rate"] - dom.mass) < 0.01 * dom.mass


def test_conditional_stays_inside_domain(brownian10, terminal10):
    dom = rl.Domain(-1.0, 2.0, 0.842)
    s = rl.simulate_conditional(brownian10, terminal10, dom, 30_000, seed=8)
    w = s.feature_column()
    assert w.min() >= dom.a1 and w.max() <= dom.a2
    assert s.domain_tag == dom


def test_conditional_on_near_full_support_matches_unconditional(brownian10, terminal10):
    dom = rl.central_domain(brownian10, terminal10, epsilon=1e-9)
    cond = rl.simulate_conditional(brownian10, terminal10, dom, 50_000, seed=31)
    free = rl.simulate_terminal(brownian10, terminal10, 50_000, seed=32)
    stat = ks_2samp(cond.feature_column(), free.feature_column()).statistic
    # 1% critical value for the two-sample statistic
    assert stat < 1.63 * np.sqrt(2.0 / 50_000)


def test_conditional_symmetric_mean(brownian10, terminal10, w10_law):
    _, dom = w10_law
    s = rl.simulate_conditional(brownian10, terminal10, dom, 40_000, seed=4)
    w = s.feature_column()
    assert abs(w.mean()) < 4.0 * w.std(ddof=1) / np.sqrt(w.size)


def test_tiny_mass_is_refused(brownian10, terminal10):
    dom = rl.Domain(8.0, 8.001, 1e-8)
    with pytest.raises(SamplingError):
        rl.simulate_conditional(brownian10, terminal10, dom, 10, seed=0)


# ---------------------------------------------------------------------------
# path integrals
# ---------------------------------------------------------------------------

def test_path_integral_mean_zero(brownian10):
    s = rl.simulate_path_integral(brownian10, T=1.0, steps=256, n=100_000, seed=13)
    v = s.feature_column()
    assert abs(v.mean()) < 4.0 * v.std(ddof=1) / np.sqrt(v.size)
    assert s.meta["steps"] == 256


def test_path_integral_variance_closed_form(brownian10):
    # Var of the integral of W over [0,1] is 1/3
    s = rl.simulate_path_integral(brownian10, T=1.0, steps=256, n=400_000, seed=14)
    assert abs(s.feature_column().var() - 1.0 / 3.0) < 0.03 / 3.0


def test_path_integral_refinement_stable(brownian10):
    a = rl.simulate_path_integral(brownian10, T=1.0, steps=128, n=200_000, seed=15)
    b = rl.simulate_path_integral(brownian10, T=1.0, steps=256, n=200_000, seed=15)
    va, vb = a.feature_column().var(ddof=1), b.feature_column().var(ddof=1)
    # variance of a variance estimate: ~ sqrt(2/(n-1)) * var relative error
    stderr = np.sqrt(2.0 / (a.n - 1)) * va
    assert abs(va - vb) < stderr


def test_path_integral_validations(brownian10):
    with pytest.raises(ConfigurationError):
        rl.simulate_path_integral(brownian10, T=1.0, steps=1, n=10, seed=0)
    with pytest.raises(ConfigurationError):
        rl.simulate_path_integral(rl.ProcessSpec("basket_tree", 2),
                                  T=1.0, steps=16, n=10, seed=0)


# ---------------------------------------------------------------------------
# the discrete two-asset tree
# ---------------------------------------------------------------------------

def test_tree_reproduces_reference_nodes():
    table = {(r.z1, r.z2): r.expectation for r in rl.basket_tree_expectations()}
    assert table[(12, 6)] == Fraction(25, 4)
    assert table[(6, 12)] == Fraction(7)


def test_tree_all_nodes_by_exhaustive_enumeration():
    # brute force over the four equiprobable successor pairs of each node
    table = {(r.z1, r.z2): r.expectation for r in rl.basket_tree_expectations()}
    assert table[(12, 12)] == Fraction(12)  # ((18)+(12)+(12)+(6))/4
    assert table[(6, 6)] == Fraction(5, 2)


def test_tree_recursive_and_flat_versions_agree():
    rec = rl.basket_tree_expectations()
    flat = rl.basket_tree_expectations_from_leaves()
    assert [(r.z1, r.z2, r.expectation, r.probability) for r in rec] == \
           [(r.z1, r.z2, r.expectation, r.probability) for r in flat]


def test_tree_tower_property():
    leaves = rl.basket_tree_leaf_enumeration()
    assert len(leaves) == 16
    assert sum(l.probability for l in leaves) == 1
    e_direct = sum((l.probability * l.payoff for l in leaves), Fraction(0))
    e_tower = sum((r.probability * r.expectation for r in rl.basket_tree_expectations()),
                  Fraction(0))
    assert e_direct == e_tower


def test_tree_sampling_matches_enumeration():
    proc = rl.ProcessSpec("basket_tree", horizon=2)
    s = rl.simulate_terminal(proc, rl.FeatureSpec("basket_sum", eval_time=2.0), 200_000, seed=6)
    mean_payoff = np.maximum(s.feature_column() - 10.0, 0.0).mean()
    assert abs(mean_payoff - 6.9375) < 0.05


# ---------------------------------------------------------------------------
# sample sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_with_payoffs_refuses_non_finite_payoffs(bad):
    s = rl.SampleSet(np.arange(4.0).reshape(-1, 1), None, 7, 4, meta={"proposals": 4})
    pays = np.ones(4)
    pays[2] = bad
    with pytest.raises(ConfigurationError, match="non-finite payoff"):
        s.with_payoffs(pays)
    with pytest.raises(ConfigurationError, match="payoff length"):
        s.with_payoffs(np.ones(3))
    paid = s.with_payoffs(np.ones(4))
    assert paid.features is s.features and paid.payoffs is not None
    assert (paid.seed, paid.n, dict(paid.meta)) == (7, 4, {"proposals": 4})
    assert s.payoffs is None
    with pytest.raises(ConfigurationError, match="non-finite feature"):
        rl.SampleSet(np.array([[0.0], [np.nan]]), np.ones(2), 7, 2)
