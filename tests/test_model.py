from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

import reglater as rl
from reglater.errors import ConfigurationError, SamplingError
from reference import simulate_terminal, terminal_drawer


# ---------------------------------------------------------------------------
# unconditioned draws (reference.simulate_terminal), against which the
# package's conditional sampler is checked
# ---------------------------------------------------------------------------

def test_brownian_terminal_mean_within_band(terminal10):
    s = simulate_terminal(terminal10, 50_000, seed=11)
    w = s.features
    assert abs(w.mean()) < 4.0 * np.sqrt(10.0 / w.size)


def test_brownian_terminal_variance_closed_form(terminal10):
    s = simulate_terminal(terminal10, 1_000_000, seed=3)
    assert abs(s.features.var() - 10.0) < 0.02 * 10.0


def test_brownian_terminal_matches_normal_cdf(terminal10):
    s = simulate_terminal(terminal10, 100_000, seed=17)
    stat = kstest(s.features, "norm", args=(0.0, np.sqrt(10.0))).statistic
    # 1% critical value of the one-sample KS statistic
    assert stat < 1.63 / np.sqrt(s.n)


def test_simulation_is_deterministic(terminal10):
    a = simulate_terminal(terminal10, 4096, seed=123)
    b = simulate_terminal(terminal10, 4096, seed=123)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(
        a.features, simulate_terminal(terminal10, 4096, seed=124).features)


def test_pair_feature_has_correlated_columns():
    feat = rl.FeatureSpec("pair_u_T", eval_time=10.0, intermediate_time=1.0)
    wu, wt = simulate_terminal(feat, 200_000, seed=2)
    assert abs(wu.var() - 1.0) < 0.05
    assert abs(wt.var() - 10.0) < 0.3
    # Cov(W_u, W_T) = u
    assert abs(np.mean(wu * wt) - 1.0) < 0.05


def test_feature_times_are_positive():
    # at time 0 every feature is a constant, with no law to fit on
    with pytest.raises(ConfigurationError, match="feature.eval_time"):
        rl.FeatureSpec("terminal", 0.0)
    with pytest.raises(ConfigurationError, match="feature.intermediate_time"):
        rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=0.0)


def test_sampleset_is_immutable(terminal10):
    s = simulate_terminal(terminal10, 100, seed=1)
    with pytest.raises(ValueError):
        s.features[0] = 99.0


def test_joined_samples_lie_back_to_back_unchecked(monkeypatch):
    a = rl.SampleSet(np.array([1.0, 2.0]), np.array([10.0, 20.0]), meta={"k": 1})
    b = rl.SampleSet(np.array([3.0]), np.array([30.0]))
    bare = rl.SampleSet(np.array([4.0]))
    assert rl.SampleSet.joined([a]) is a
    monkeypatch.setattr(rl.SampleSet, "__post_init__", lambda self: pytest.fail("checked"))
    ab = rl.SampleSet.joined([a, b])
    assert ab.n == 3 and dict(ab.meta) == {}
    assert np.array_equal(ab.features, [1.0, 2.0, 3.0])
    assert np.array_equal(ab.payoffs, [10.0, 20.0, 30.0])
    assert not ab.features.flags.writeable and not ab.payoffs.flags.writeable
    assert rl.SampleSet.joined([a, bare]).payoffs is None


# ---------------------------------------------------------------------------
# conditional simulation
# ---------------------------------------------------------------------------

def test_conditional_acceptance_rate_matches_mass(w10_law):
    s = rl.simulate_conditional(w10_law, 100_000, seed=21)
    mass = w10_law.truncation_mass
    assert abs(s.meta["acceptance_rate"] - mass) < 0.01 * mass


def test_conditional_stays_inside_domain():
    law = rl.TruncatedNormal(10.0, -1.0, 2.0)
    s = rl.simulate_conditional(law, 30_000, seed=8)
    w = s.features
    assert w.min() >= law.lower and w.max() <= law.upper


def test_conditional_on_near_full_support_matches_unconditional(terminal10):
    law = rl.truncated_feature_law(terminal10, epsilon=1e-9)
    cond = rl.simulate_conditional(law, 50_000, seed=31)
    free = simulate_terminal(terminal10, 50_000, seed=32)
    stat = ks_2samp(cond.features, free.features).statistic
    # 1% critical value for the two-sample statistic
    assert stat < 1.63 * np.sqrt(2.0 / 50_000)


def test_conditional_draws_are_the_terminal_stream_kept(terminal10, w10_law):
    # rejection keeps, in order, the in-domain values of the terminal drawer's
    # stream under the ("conditional", "terminal") key
    n = 1000
    s = rl.simulate_conditional(w10_law, n, seed=5)
    drawn = rl.rng.block_map(s.meta["proposals"], terminal_drawer(terminal10), 5,
                             "conditional", "terminal")
    kept = drawn[(drawn >= w10_law.lower) & (drawn <= w10_law.upper)]
    assert np.array_equal(s.features, kept[:n])


def test_conditional_symmetric_mean(w10_law):
    s = rl.simulate_conditional(w10_law, 40_000, seed=4)
    w = s.features
    assert abs(w.mean()) < 4.0 * w.std(ddof=1) / np.sqrt(w.size)


def test_tiny_mass_is_refused():
    law = rl.TruncatedNormal(10.0, 12.0, 12.001)
    assert law.truncation_mass < rl.model.MIN_CONDITIONAL_MASS
    with pytest.raises(SamplingError):
        rl.simulate_conditional(law, 10, seed=0)


def test_truncated_feature_law_is_the_central_mass(terminal10):
    law = rl.truncated_feature_law(terminal10, 1e-4)
    assert (law.var, law.lower) == (10.0, -law.upper)
    assert law.truncation_mass == pytest.approx(1.0 - 1e-4, rel=1e-12)
    with pytest.raises(ConfigurationError, match="epsilon"):
        rl.truncated_feature_law(terminal10, 1.0)
    with pytest.raises(ConfigurationError, match="feature.kind"):
        rl.truncated_feature_law(rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=1.0), 1e-4)


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


# ---------------------------------------------------------------------------
# sample sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_with_payoffs_refuses_non_finite_payoffs(bad):
    s = rl.SampleSet(np.arange(4.0), meta={"proposals": 4})
    pays = np.ones(4)
    pays[2] = bad
    with pytest.raises(ConfigurationError, match="non-finite payoff"):
        s.with_payoffs(pays)
    with pytest.raises(ConfigurationError, match="payoff length"):
        s.with_payoffs(np.ones(3))
    paid = s.with_payoffs(np.ones(4))
    assert paid.features is s.features and paid.payoffs is not None
    assert (paid.n, dict(paid.meta)) == (4, {"proposals": 4})
    assert s.payoffs is None
    with pytest.raises(ConfigurationError, match="non-finite feature"):
        rl.SampleSet(np.array([0.0, np.nan]), np.ones(2))


def test_sample_set_shape_comes_from_its_features():
    s = rl.SampleSet(np.arange(5.0), np.ones(5))
    assert s.features.shape == (5,) and s.n == 5
    assert np.array_equal(s.features, np.arange(5.0))
    with pytest.raises(ConfigurationError, match="payoff length"):
        rl.SampleSet(np.arange(5.0), np.ones(4))


def test_sample_set_refuses_two_feature_columns():
    # every fit regresses on one feature, one value per draw: a (W_u, W_T)
    # pair is two columns, and a one-column array is not the 1-D form either
    for shape in ((3, 2), (3, 1), (2, 2, 1), ()):
        with pytest.raises(ConfigurationError, match="1-D array"):
            rl.SampleSet(np.zeros(shape))
    with pytest.raises(ConfigurationError, match="1-D array"):
        rl.SampleSet(np.zeros((3, 2)), np.zeros(3))
