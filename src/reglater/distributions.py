"""The feature law the sieve basis is built on.

Every sweep fits on one law: a normal truncated to a compact interval.  It
has a quantile for the bin edges, a CDF for the bins' masses, and a density
that every per-bin integral (the basis's moments, its projection and its
error) is taken against by quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._normal import ndtr, ndtri, phi
from .errors import ConfigurationError


@dataclass(frozen=True)
class TruncatedNormal:
    """N(mean, var) conditioned on [lower, upper] (the truncated law itself)."""

    mean: float
    var: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (self.var > 0 and np.isfinite(self.var)):
            raise ConfigurationError("truncated normal requires var > 0")
        if not (np.isfinite(self.lower) and np.isfinite(self.upper) and self.lower < self.upper):
            raise ConfigurationError("truncated normal requires finite lower < upper")
        mass = self._f2 - self._f1
        if mass <= 0:
            raise ConfigurationError("truncation interval carries no probability mass")

    # The law's constants are computed once per instance (fields are frozen;
    # equality and hashing see only the fields).
    @cached_property
    def sigma(self) -> float:
        return float(np.sqrt(self.var))

    @cached_property
    def _f1(self) -> float:
        return ndtr((self.lower - self.mean) / self.sigma)

    @cached_property
    def _f2(self) -> float:
        return ndtr((self.upper - self.mean) / self.sigma)

    @cached_property
    def truncation_mass(self) -> float:
        """Mass of [lower, upper] under the untruncated normal."""
        return self._f2 - self._f1

    def quantile(self, p: float) -> float:
        level = self._f1 + p * (self._f2 - self._f1)
        return self.mean + self.sigma * ndtri(level)

    def density(self, u):
        u = np.asarray(u, dtype=np.float64)
        inside = (u >= self.lower) & (u <= self.upper)
        vals = phi((u - self.mean) / self.sigma) / (self.sigma * self.truncation_mass)
        return np.where(inside, vals, 0.0)

    def cdf(self, u: float) -> float:
        """P(U <= u) for u on the support."""
        return (ndtr((u - self.mean) / self.sigma) - self._f1) / self.truncation_mass

