"""Exact conditional-expectation transfer of a fitted basis representation.

Each basis function has a closed-form conditional expectation under a
Gaussian transition (Brownian level, or log-normal level for GBM), so a
fitted coefficient vector maps to the earlier-date conditional-expectation
function with no additional projection error.  The transition is applied
untruncated even though the basis lives on a truncated domain; the induced
bias is of the order of the truncation mass.

The matrix of transferred basis functions (``basis_condexp``) holds no
coefficients: on a set of states it depends only on the basis, the states
and the transition (for Brownian motion, on T - t alone), so a sweep builds
it once per basis and evaluation grid and each fit's transfer is one
matrix-vector product.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._normal import ndtr_array, phi
from .basis import SieveBasis
from .errors import ConfigurationError, JensenViolationError
from .model import SampleSet
from .payoff import PayoffSpec, oracle_conditional
from .regress import FitResult, predict

@dataclass(frozen=True)
class BrownianTransition:
    """W(T) | W(t) = w is N(w, T - t)."""

    t: float
    T: float

    def __post_init__(self):
        if not (0 <= self.t < self.T):
            raise ConfigurationError("transition: requires 0 <= t < T")


@dataclass(frozen=True)
class GbmTransition:
    """S(T) | S(t) = s is log-normal with log-mean ln s - sigma^2 (T-t)/2."""

    t: float
    T: float
    sigma: float

    def __post_init__(self):
        if not (0 <= self.t < self.T):
            raise ConfigurationError("transition: requires 0 <= t < T")
        if not (self.sigma > 0):
            raise ConfigurationError("transition: requires sigma > 0")


Transition = BrownianTransition | GbmTransition


def _brownian_bin_expectations(basis: SieveBasis, mu: np.ndarray, s: float) -> np.ndarray:
    """(n, 2K) matrix of E[e_k(W_T) | state] for Gaussian W_T ~ N(mu, s^2)."""
    edges = basis.partition.edges
    alpha = (edges[:-1][None, :] - mu[:, None]) / s
    beta = (edges[1:][None, :] - mu[:, None]) / s
    mass = ndtr_array(beta) - ndtr_array(alpha)
    first = (mu[:, None] - basis.centers[None, :]) * mass + s * (phi(alpha) - phi(beta))
    out = np.empty((mu.size, basis.dim))
    out[:, 0::2] = basis.norm0[None, :] * mass
    out[:, 1::2] = basis.norm1[None, :] * first
    return out


def _gbm_bin_expectations(basis: SieveBasis, spot: np.ndarray, v: float) -> np.ndarray:
    """Same under a log-normal transition; partial moments on log-space edges."""
    edges = basis.partition.edges
    if np.any(edges <= 0):
        raise ConfigurationError("gbm transfer needs a positive basis domain")
    if np.any(spot <= 0):
        raise ConfigurationError("gbm state must be positive")
    m = np.log(spot) - 0.5 * v * v
    a = (np.log(edges[:-1])[None, :] - m[:, None]) / v
    b = (np.log(edges[1:])[None, :] - m[:, None]) / v
    mass = ndtr_array(b) - ndtr_array(a)
    level = spot[:, None] * (ndtr_array(b - v) - ndtr_array(a - v))  # E[S 1_bin | state]
    out = np.empty((spot.size, basis.dim))
    out[:, 0::2] = basis.norm0[None, :] * mass
    out[:, 1::2] = basis.norm1[None, :] * (level - basis.centers[None, :] * mass)
    return out


def basis_condexp(transition: Transition, basis: SieveBasis, state) -> np.ndarray:
    """Conditional expectation of every basis function given the state at t."""
    arr = np.atleast_1d(np.asarray(state, dtype=np.float64))
    scale = np.sqrt(transition.T - transition.t)
    if isinstance(transition, BrownianTransition):
        out = _brownian_bin_expectations(basis, arr, scale)
    else:
        out = _gbm_bin_expectations(basis, arr, transition.sigma * scale)
    return out[0] if np.ndim(state) == 0 else out


def condexp_estimate(transition: Transition, basis: SieveBasis, coefficients,
                     state) -> np.ndarray | float:
    """Estimated conditional expectation: the fitted coefficients dotted with
    the transferred basis."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients.shape != (basis.dim,):
        raise ConfigurationError("transfer: coefficient length must equal basis dimension")
    vals = basis_condexp(transition, basis, state) @ coefficients
    return float(vals) if np.ndim(state) == 0 else vals


class JensenCheck(NamedTuple):
    mse_cond: float
    mse_payoff: float
    mse_payoff_stderr: float


def jensen_check(fit: FitResult, basis: SieveBasis, transition: Transition,
                 payoff: PayoffSpec, paired: SampleSet, truth=None) -> JensenCheck:
    """Check that conditioning can only shrink the mean-square error.

    ``paired`` holds states at t in column 0, matched time-T continuations in
    column 1, and the payoffs.  Estimates E[(g_t - E[ghat | F_t])^2] and
    E[(X - ghat)^2] on the same draws and raises if the first exceeds the
    second by more than three standard errors of the payoff-space estimate.
    ``truth`` overrides the oracle with a callable on states (needed when the
    payoff is an in-span function with no named oracle).
    """
    if paired.dim != 2:
        raise ConfigurationError("jensen check needs a paired (state, continuation) sample")
    if paired.payoffs is None:
        raise ConfigurationError("jensen check needs payoffs on the paired sample")
    states = paired.features[:, 0]
    continuation = paired.features[:, 1]
    n = states.size

    fitted = predict(basis, fit.coefficients, continuation)
    sq_pay = (paired.payoffs - fitted) ** 2
    mse_payoff = float(np.mean(sq_pay))
    stderr = float(np.std(sq_pay, ddof=1) / np.sqrt(n)) if n > 1 else 0.0

    estimate = condexp_estimate(transition, basis, fit.coefficients, states)
    if truth is None:
        target = oracle_conditional(payoff, transition.t, transition.T, states)
    else:
        target = np.asarray(truth(states), dtype=np.float64)
    mse_cond = float(np.mean((target - estimate) ** 2))

    if mse_cond > mse_payoff + 3.0 * stderr:
        raise JensenViolationError(
            f"conditional MSE {mse_cond:.6g} exceeds payoff MSE {mse_payoff:.6g} "
            f"+ 3 x {stderr:.2g}")
    return JensenCheck(mse_cond, mse_payoff, stderr)
