import numpy as np
import pytest

import reglater as rl
from reglater.errors import ConfigurationError, UnsupportedOracleError
from reglater.payoff import gauss_hermite_expectation


def test_call_on_tree_leaf_sum():
    spec = rl.PayoffSpec("call", strike=10.0)
    assert rl.eval_payoff(spec, 14 + 8) == 12.0
    assert rl.eval_payoff(spec, 6.0) == 0.0


def test_tanh_and_friends_pointwise():
    assert rl.eval_payoff(rl.PayoffSpec("tanh"), 0.0) == 0.0
    assert rl.eval_payoff(rl.PayoffSpec("square"), -3.0) == 9.0
    assert rl.eval_payoff(rl.PayoffSpec("identity"), 2.5) == 2.5


@pytest.mark.parametrize("spec", [rl.PayoffSpec("call", 0.5), rl.PayoffSpec("tanh"),
                                  rl.PayoffSpec("square"), rl.PayoffSpec("identity")],
                         ids=lambda spec: spec.kind)
def test_payoff_into_out_is_the_payoff(spec):
    # numpy's out= convention: the values are written into out, with the
    # bits of a fresh result, and out is returned
    x = np.array([-2.0, -0.0, 0.0, 0.5, 3.0])
    out = np.full(x.size, np.nan)
    assert rl.eval_payoff(spec, x, out=out) is out
    assert out.tobytes() == rl.eval_payoff(spec, x).tobytes()
    assert isinstance(rl.eval_payoff(spec, 0.25), float)


def test_payoff_spec_validation():
    with pytest.raises(ConfigurationError):
        rl.PayoffSpec("call")  # no strike
    with pytest.raises(ConfigurationError):
        rl.PayoffSpec("tanh", strike=1.0)
    with pytest.raises(ConfigurationError):
        rl.PayoffSpec("swaption")


def test_call_payoffs_nonnegative_and_convex():
    gen = np.random.default_rng(0)
    spec = rl.PayoffSpec("call", strike=1.0)
    x = gen.normal(1.0, 2.0, size=500)
    y = gen.normal(1.0, 2.0, size=500)
    gx, gy = rl.eval_payoff(spec, x), rl.eval_payoff(spec, y)
    gm = rl.eval_payoff(spec, (x + y) / 2.0)
    assert np.all(gx >= 0)
    assert np.all(gm <= (gx + gy) / 2.0 + 1e-12)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_square_oracle_at_origin():
    spec = rl.PayoffSpec("square")
    assert rl.oracle_conditional(spec, 0.0, 10.0, 0.0) == pytest.approx(10.0, abs=1e-12)


def test_identity_oracle_is_martingale():
    spec = rl.PayoffSpec("identity")
    for t, w in [(0.0, 0.0), (1.0, -2.5), (9.9, 4.0)]:
        assert rl.oracle_conditional(spec, t, 10.0, w) == pytest.approx(w, abs=1e-12)


def test_degenerate_oracle_returns_payoff():
    spec = rl.PayoffSpec("tanh")
    out = rl.oracle_conditional(spec, 10.0, 10.0, 0.7)
    assert out == pytest.approx(np.tanh(0.7), abs=1e-15)


def test_unsupported_pairs_raise():
    with pytest.raises(UnsupportedOracleError):
        rl.oracle_conditional(rl.PayoffSpec("call", strike=1.0), 1.0, 10.0, 0.0)


@pytest.mark.parametrize("kind", ["identity", "square"])
def test_quadrature_matches_closed_form_brownian(kind):
    spec = rl.PayoffSpec(kind)
    gen = np.random.default_rng(1)
    for _ in range(50):
        t = gen.uniform(0.0, 9.99)
        w = gen.normal(0.0, np.sqrt(max(t, 0.1)))
        cf = rl.oracle_conditional(spec, t, 10.0, w)
        gq = gauss_hermite_expectation(lambda u: rl.eval_payoff(spec, u), w, np.sqrt(10.0 - t))
        assert abs(cf - gq) < 1e-8 * max(1.0, abs(cf))


def test_quadrature_point_doubling_converged():
    spec = rl.PayoffSpec("tanh")
    a = rl.oracle_conditional(spec, 1.0, 10.0, 0.8)  # from 128 nodes
    b = gauss_hermite_expectation(lambda u: rl.eval_payoff(spec, u), 0.8, 3.0, points=256)
    assert abs(a - b) < 1e-9


def test_oracle_vectorizes_over_states():
    spec = rl.PayoffSpec("tanh")
    states = np.linspace(-3, 3, 7)
    out = rl.oracle_conditional(spec, 5.0, 10.0, states)
    assert out.shape == states.shape
    assert np.all(np.diff(out) > 0)  # monotone in the state
    assert out[3] == pytest.approx(0.0, abs=1e-12)  # odd symmetry at 0

