"""Payoff functions and the conditional-expectation oracle.

``eval_payoff`` is exact pointwise evaluation of the payoff on feature
values.  ``oracle_conditional`` supplies the *true* conditional expectation
g(t, state) of a payoff of the Brownian state at the payoff date T wherever
it is knowable, by the payoff: closed forms for identity and square, and
adaptive Gauss-Hermite quadrature against the Gaussian transition density for
tanh, which admits no closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, UnsupportedOracleError

PAYOFF_KINDS = ("call", "tanh", "square", "identity")
# The Gauss-Hermite oracle starts at HERMITE_POINTS nodes and doubles them
# until the estimate changes by at most HERMITE_TOLERANCE (or reaches the cap).
HERMITE_POINTS = 128
HERMITE_TOLERANCE = 1e-9
_MAX_HERMITE_POINTS = 1 << 13


@dataclass(frozen=True)
class PayoffSpec:
    kind: str
    strike: float | None = None

    def __post_init__(self):
        if self.kind not in PAYOFF_KINDS:
            raise ConfigurationError(f"payoff.kind: unknown kind {self.kind!r}")
        if self.kind == "call":
            if self.strike is None or not np.isfinite(self.strike):
                raise ConfigurationError("payoff.strike: call needs a finite strike")
        elif self.strike is not None:
            raise ConfigurationError(f"payoff.strike: not meaningful for {self.kind!r}")


def eval_payoff(spec: PayoffSpec, feature) -> np.ndarray | float:
    """Pointwise payoff value(s), elementwise."""
    x = np.asarray(feature, dtype=np.float64)
    if spec.kind == "call":
        out = np.maximum(x - spec.strike, 0.0)
    elif spec.kind == "tanh":
        out = np.tanh(x)
    elif spec.kind == "square":
        out = np.square(x)
    elif spec.kind == "identity":
        out = x + 0.0
    else:  # pragma: no cover - blocked by PayoffSpec validation
        raise ConfigurationError(spec.kind)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=16)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_hermite  # only the quadrature oracle needs scipy

    x, w = roots_hermite(n)
    return x, w / np.sqrt(np.pi)


def gauss_hermite_expectation(f, mean, sd, points: int = HERMITE_POINTS):
    """E[f(mean + sd * Z)] by Gauss-Hermite from ``points`` nodes; doubles the
    rule until the change drops below ``HERMITE_TOLERANCE`` (vectorized over
    mean/sd arrays)."""
    mean = np.asarray(mean, dtype=np.float64)
    n, est = points, None
    while True:
        x, w = _hermite_rule(n)
        shift = np.multiply.outer(sd * np.sqrt(2.0), x)
        new = np.tensordot(f(mean[..., None] + shift), w, axes=([-1], [0]))
        if n >= _MAX_HERMITE_POINTS or (
                est is not None and np.max(np.abs(new - est)) <= HERMITE_TOLERANCE):
            return new
        n, est = 2 * n, new


def oracle_conditional(spec: PayoffSpec, t: float, T: float, state) -> np.ndarray | float:
    """True conditional expectation of the payoff of W(T) given W(t) = state.

    Supported payoffs: identity and square, in closed form, and tanh, by
    ``gauss_hermite_expectation``.
    """
    if not (0 <= t <= T):
        raise ConfigurationError("oracle: t must lie in [0, T]")
    if spec.kind not in ("identity", "square", "tanh"):
        raise UnsupportedOracleError(f"no conditional-expectation oracle for {spec.kind}")
    state_arr = np.asarray(state, dtype=np.float64)
    if t == T:
        return eval_payoff(spec, state_arr)
    if spec.kind == "identity":
        out = state_arr + 0.0
    elif spec.kind == "square":
        out = np.square(state_arr) + (T - t)
    else:
        out = gauss_hermite_expectation(lambda u: eval_payoff(spec, u), state_arr,
                                        np.sqrt(T - t))
    return float(out) if np.ndim(out) == 0 else out
