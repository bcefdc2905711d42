"""The feature law the sieve basis is built on.

Every sweep fits on one law: the centred normal of Brownian motion at one
date, truncated to a compact interval.  It has a quantile for the bin edges,
a CDF for the bins' masses, a mass (the sampler's acceptance rate), and a
density that every per-bin integral is taken against by quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._normal import ndtr, ndtri, phi
from .errors import ConfigurationError


@dataclass(frozen=True)
class TruncatedNormal:
    """N(0, var) conditioned on [lower, upper] (the truncated law itself)."""

    var: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (self.var > 0 and np.isfinite(self.var)):
            raise ConfigurationError("truncated normal requires var > 0")
        if not (np.isfinite(self.lower) and np.isfinite(self.upper) and self.lower < self.upper):
            raise ConfigurationError("truncated normal requires finite lower < upper")
        if self.truncation_mass <= 0:
            raise ConfigurationError("truncation interval carries no probability mass")

    # The law's constants are computed once per instance (fields are frozen;
    # equality and hashing see only the fields).
    @cached_property
    def sigma(self) -> float:
        return float(np.sqrt(self.var))

    @cached_property
    def _ends(self) -> list[float]:
        """The untruncated CDF at ``lower`` and at ``upper``."""
        return ndtr(np.array([self.lower, self.upper]) / self.sigma).tolist()

    @cached_property
    def truncation_mass(self) -> float:
        """Mass of [lower, upper] under the untruncated normal."""
        return self._ends[1] - self._ends[0]

    def quantile(self, p: float) -> float:
        return self.sigma * ndtri(self._ends[0] + p * self.truncation_mass)

    def density(self, u):
        u = np.asarray(u, dtype=np.float64)
        inside = (u >= self.lower) & (u <= self.upper)
        vals = phi(u / self.sigma) / (self.sigma * self.truncation_mass)
        return np.where(inside, vals, 0.0)

    def cdf(self, u) -> np.ndarray:
        """P(U <= u), elementwise, for u on the support."""
        return (ndtr(np.divide(u, self.sigma)) - self._ends[0]) / self.truncation_mass
