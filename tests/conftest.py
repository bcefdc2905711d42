import numpy as np
import pytest

from reglater import FeatureSpec, PayoffSpec, build_basis, truncated_feature_law


@pytest.fixture(scope="session")
def terminal10():
    return FeatureSpec("terminal", eval_time=10.0)


@pytest.fixture(scope="session")
def tanh_payoff():
    return PayoffSpec("tanh")


@pytest.fixture(scope="session")
def w10_law(terminal10):
    """Truncated N(0, 10) law of the terminal value."""
    return truncated_feature_law(terminal10, 1e-4)


@pytest.fixture(scope="session")
def basis_cache(w10_law):
    """Bases on the truncated N(0,10) law, built once per session."""
    cache = {}

    def get(K: int):
        if K not in cache:
            cache[K] = build_basis(w10_law, K)
        return cache[K]

    return get


def slope_of(xs, ys) -> float:
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    return float(np.polyfit(lx, ly, 1)[0])
