"""Exact conditional-expectation transfer of a fitted basis representation.

Each basis function has a closed-form conditional expectation under the
Gaussian transition of Brownian motion, so a fitted coefficient vector maps
to the earlier-date conditional-expectation function with no additional
projection error.  The transition is applied untruncated even though the
basis lives on a truncated domain; the induced bias is of the order of the
truncation mass.

The matrix of transferred basis functions (``basis_condexp``) holds no
coefficients: on a set of states it depends only on the basis, the states
and the transition (on T - t alone), so a sweep builds it once per basis
and evaluation grid and each fit's transfer is one matrix-vector product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._normal import ndtr, phi
from .basis import SieveBasis
from .errors import ConfigurationError


@dataclass(frozen=True)
class BrownianTransition:
    """W(T) | W(t) = w is N(w, T - t)."""

    t: float
    T: float

    def __post_init__(self):
        if not (0 <= self.t < self.T):
            raise ConfigurationError("transition: requires 0 <= t < T")


def basis_condexp(transition: BrownianTransition, basis: SieveBasis, state) -> np.ndarray:
    """Conditional expectation of every basis function given the state at t:
    per bin, the mass and first moment about its center of W_T ~ N(w, T - t)."""
    mu = np.atleast_1d(np.asarray(state, dtype=np.float64))
    s = np.sqrt(transition.T - transition.t)
    edges = basis.edges
    alpha = (edges[:-1][None, :] - mu[:, None]) / s
    beta = (edges[1:][None, :] - mu[:, None]) / s
    mass = ndtr(beta) - ndtr(alpha)
    first = (mu[:, None] - basis.centers[None, :]) * mass + s * (phi(alpha) - phi(beta))
    out = np.empty((mu.size, basis.dim))
    out[:, 0::2] = basis.norm0 * mass
    out[:, 1::2] = basis.norm1[None, :] * first
    return out[0] if np.ndim(state) == 0 else out


def condexp_estimate(transition: BrownianTransition, basis: SieveBasis, coefficients,
                     state) -> np.ndarray | float:
    """Estimated conditional expectation: the fitted coefficients dotted with
    the transferred basis."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients.shape != (basis.dim,):
        raise ConfigurationError("transfer: coefficient length must equal basis dimension")
    vals = basis_condexp(transition, basis, state) @ coefficients
    return float(vals) if np.ndim(state) == 0 else vals
