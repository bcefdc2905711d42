"""Feature laws the sieve basis can be built on.

Two laws are supported: uniform, and normal truncated to a compact
interval.  Both are analytic: bin masses and partial central moments come
from closed forms, so the basis normalization constants carry no quadrature
error, and both have a density for the quadratures.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from ._normal import ndtr, ndtri, phi
from .errors import ConfigurationError


def _gaussian_power_integrals(alpha: float, beta: float, jmax: int) -> list[float]:
    """I_j = int_alpha^beta z^j phi(z) dz for j = 0..jmax (stable recursion)."""
    pa, pb = float(phi(alpha)), float(phi(beta))
    out = [ndtr(beta) - ndtr(alpha)]
    if jmax >= 1:
        out.append(pa - pb)
    for j in range(2, jmax + 1):
        out.append((j - 1) * out[j - 2] + alpha ** (j - 1) * pa - beta ** (j - 1) * pb)
    return out


@dataclass(frozen=True)
class Uniform:
    """Uniform law on [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ConfigurationError("uniform law requires finite a < b")

    @property
    def support(self) -> tuple[float, float]:
        return (self.a, self.b)

    def quantile(self, p: float) -> float:
        return self.a + (self.b - self.a) * p

    def density(self, u):
        u = np.asarray(u, dtype=np.float64)
        inside = (u >= self.a) & (u <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def partial_central_moments(self, lo: float, hi: float, center: float, jmax: int) -> list[float]:
        """E[1_{[lo,hi)}(U) (U - center)^j] for j = 0..jmax."""
        lo = max(lo, self.a)
        hi = min(hi, self.b)
        if hi <= lo:
            return [0.0] * (jmax + 1)
        scale = self.b - self.a
        return [
            ((hi - center) ** (j + 1) - (lo - center) ** (j + 1)) / ((j + 1) * scale)
            for j in range(jmax + 1)
        ]


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

    @property
    def support(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    def quantile(self, p: float) -> float:
        level = self._f1 + p * (self._f2 - self._f1)
        return self.mean + self.sigma * ndtri(level)

    def density(self, u):
        u = np.asarray(u, dtype=np.float64)
        inside = (u >= self.lower) & (u <= self.upper)
        vals = phi((u - self.mean) / self.sigma) / (self.sigma * self.truncation_mass)
        return np.where(inside, vals, 0.0)

    def partial_central_moments(self, lo: float, hi: float, center: float, jmax: int) -> list[float]:
        lo = max(lo, self.lower)
        hi = min(hi, self.upper)
        if hi <= lo:
            return [0.0] * (jmax + 1)
        s = self.sigma
        alpha = (lo - self.mean) / s
        beta = (hi - self.mean) / s
        shift = self.mean - center
        ints = _gaussian_power_integrals(alpha, beta, jmax)
        out = []
        for j in range(jmax + 1):
            # (U - center)^j = (s Z + shift)^j expanded in standardized Z
            total = sum(comb(j, i) * s**i * shift ** (j - i) * ints[i] for i in range(j + 1))
            out.append(total / self.truncation_mass)
        return out


DistSpec = Uniform | TruncatedNormal
