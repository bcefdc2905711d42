"""Payoff functions and conditional-expectation oracles.

``eval_payoff`` is exact pointwise evaluation of the payoff on feature
values.  ``oracle_conditional`` supplies the *true* conditional expectation
g(t, state) wherever it is knowable: closed forms for identity / square
payoffs under Brownian motion and calls under GBM, and adaptive quadrature
against the Gaussian transition density otherwise (used as ground truth for
tanh, which admits no closed form).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, roots_hermite

from .errors import ConfigurationError, UnsupportedOracleError
from .model import ProcessSpec

PAYOFF_KINDS = ("call", "basket_call", "asian_call", "tanh", "square", "identity")
_CALL_KINDS = ("call", "basket_call", "asian_call")
_MAX_HERMITE_POINTS = 1 << 13


@dataclass(frozen=True)
class PayoffSpec:
    kind: str
    strike: float | None = None

    def __post_init__(self):
        if self.kind not in PAYOFF_KINDS:
            raise ConfigurationError(f"payoff.kind: unknown kind {self.kind!r}")
        if self.kind in _CALL_KINDS:
            if self.strike is None or not np.isfinite(self.strike):
                raise ConfigurationError("payoff.strike: call variants need a finite strike")
        elif self.strike is not None:
            raise ConfigurationError(f"payoff.strike: not meaningful for {self.kind!r}")


@dataclass(frozen=True)
class OracleSpec:
    """How to obtain the true conditional expectation in test problems."""

    kind: str = "closed_form"
    quadrature_points: int = 128
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.kind not in ("closed_form", "gauss_quadrature"):
            raise ConfigurationError(f"oracle.kind: unknown kind {self.kind!r}")
        if self.kind == "gauss_quadrature" and self.quadrature_points < 16:
            raise ConfigurationError("oracle.quadrature_points: must be >= 16")
        if not (self.tolerance > 0):
            raise ConfigurationError("oracle.tolerance: must be > 0")


def eval_payoff(spec: PayoffSpec, feature) -> np.ndarray | float:
    """Pointwise payoff value(s).

    Scalar payoff kinds apply elementwise; ``basket_call`` sums the last axis
    of a vector feature first.
    """
    x = np.asarray(feature, dtype=np.float64)
    if spec.kind == "basket_call":
        if x.ndim == 0:
            raise ConfigurationError("payoff: basket_call expects a vector feature")
        x = np.sum(x, axis=-1)
        out = np.maximum(x - spec.strike, 0.0)
    elif spec.kind in ("call", "asian_call"):
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


def gbm_call_closed_form(spot, strike: float, total_vol: float):
    """E[(S_T - strike)^+ | S_t = spot] for a log-normal martingale,
    total_vol = sigma * sqrt(T - t)."""
    spot = np.asarray(spot, dtype=np.float64)
    if np.any(spot <= 0):
        raise ConfigurationError("gbm state must be positive")
    if strike <= 0:
        return spot - strike
    d1 = (np.log(spot / strike) + 0.5 * total_vol**2) / total_vol
    out = spot * ndtr(d1) - strike * ndtr(d1 - total_vol)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=16)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_hermite(n)
    return x, w / np.sqrt(np.pi)


def gauss_hermite_expectation(f, mean, sd, points: int, tolerance: float | None = None):
    """E[f(mean + sd * Z)] by Gauss-Hermite; doubles the rule until the
    change drops below ``tolerance`` (vectorized over mean/sd arrays)."""
    mean = np.asarray(mean, dtype=np.float64)
    x, w = _hermite_rule(points)
    shift = np.multiply.outer(sd * np.sqrt(2.0), x)
    est = np.tensordot(f(mean[..., None] + shift), w, axes=([-1], [0]))
    if tolerance is None:
        return est
    n = points
    while n < _MAX_HERMITE_POINTS:
        n *= 2
        x, w = _hermite_rule(n)
        shift = np.multiply.outer(sd * np.sqrt(2.0), x)
        new = np.tensordot(f(mean[..., None] + shift), w, axes=([-1], [0]))
        if np.max(np.abs(new - est)) <= tolerance:
            return new
        est = new
    return est


def _call_quadrature(spot: float, strike: float, total_vol: float, tolerance: float) -> float:
    """Adaptive quadrature for the call under GBM, split at the payoff kink.

    Gauss-Hermite stalls on the kinked integrand, so integrate the smooth
    in-the-money branch in standardized log-space instead.
    """
    from scipy.integrate import quad  # imported here: only GBM calls need it

    if strike <= 0:
        return spot - strike
    m = np.log(spot) - 0.5 * total_vol**2
    zstar = (np.log(strike) - m) / total_vol
    hi = max(zstar, total_vol) + 40.0
    val, _ = quad(
        lambda z: (spot * np.exp(-0.5 * total_vol**2 + total_vol * z) - strike)
        * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi),
        zstar, hi, epsabs=0.1 * tolerance, epsrel=1e-13, limit=300)
    return val


def oracle_conditional(spec: PayoffSpec, proc: ProcessSpec, t: float, state,
                       oracle: OracleSpec = OracleSpec()) -> np.ndarray | float:
    """True conditional expectation of the payoff given the state at time t.

    Supported pairs: identity / square / tanh under Brownian motion, call
    under GBM.  ``closed_form`` raises for tanh; ``gauss_quadrature`` works
    for any supported pair and must reproduce the closed forms.
    """
    T = proc.horizon
    if not (0 <= t <= T):
        raise ConfigurationError("oracle: t must lie in [0, horizon]")
    supported = (
        (proc.kind == "brownian" and spec.kind in ("identity", "square", "tanh"))
        or (proc.kind == "gbm" and spec.kind == "call")
    )
    if not supported:
        raise UnsupportedOracleError(
            f"no conditional-expectation oracle for ({spec.kind}, {proc.kind})")
    state_arr = np.asarray(state, dtype=np.float64)
    if t == T:
        return eval_payoff(spec, state_arr)

    if oracle.kind == "closed_form":
        if spec.kind == "identity":
            out = state_arr + 0.0
        elif spec.kind == "square":
            out = np.square(state_arr) + (T - t)
        elif spec.kind == "call":
            out = gbm_call_closed_form(state_arr, spec.strike, proc.volatility * np.sqrt(T - t))
        else:
            raise UnsupportedOracleError(
                f"{spec.kind} has no closed form; use the quadrature oracle")
        return float(out) if np.ndim(out) == 0 else out

    if spec.kind == "call":  # kink-aware quadrature in log-space
        vol = proc.volatility * np.sqrt(T - t)
        flat = np.atleast_1d(state_arr)
        vals = np.array([_call_quadrature(s, spec.strike, vol, oracle.tolerance) for s in flat])
        return float(vals[0]) if state_arr.ndim == 0 else vals.reshape(state_arr.shape)
    sd = np.sqrt(T - t)
    out = gauss_hermite_expectation(lambda u: eval_payoff(spec, u), state_arr, sd,
                                    oracle.quadrature_points, oracle.tolerance)
    return float(out) if np.ndim(out) == 0 else out
