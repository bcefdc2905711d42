"""Features of a driftless Brownian motion W with W(0) = 0, and their sampler.

The feature fixes every date.  ``simulate_conditional`` draws the value at
one date conditioned on the fit domain; the paired comparison draws the
earlier date's value the same way and continues it to the payoff date in
``harness``.  All sampling is built on counter-based substreams, so a
``SampleSet`` is a pure function of ``(law, n, seed)`` whatever the
execution schedule.  The exact two-asset tree is a table, not a process
that is sampled; it lives in ``tree``.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import rng
from ._normal import ndtri
from .distributions import TruncatedNormal
from .errors import ConfigurationError, SamplingError

FEATURE_KINDS = ("terminal", "pair_u_T")

MIN_CONDITIONAL_MASS = 1e-6


@dataclass(frozen=True)
class FeatureSpec:
    """The feature a payoff depends on: W at ``eval_time``, the payoff date
    T; ``pair_u_T`` also fixes the earlier date u."""

    kind: str
    eval_time: float
    intermediate_time: float | None = None

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ConfigurationError(f"feature.kind: unknown kind {self.kind!r}")
        if not (np.isfinite(self.eval_time) and self.eval_time > 0):
            raise ConfigurationError("feature.eval_time: must be > 0")
        if self.kind == "pair_u_T":
            if self.intermediate_time is None or not (0 < self.intermediate_time < self.eval_time):
                raise ConfigurationError("feature.intermediate_time: pair_u_T needs 0 < u < eval_time")
        elif self.intermediate_time is not None:
            raise ConfigurationError("feature.intermediate_time: only valid for pair_u_T")


@dataclass(frozen=True)
class SampleSet:
    """Immutable i.i.d. draws of (feature value, payoff): ``features`` is a
    1-D array, one value per draw."""

    features: np.ndarray
    payoffs: np.ndarray | None = None
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 1:
            raise ConfigurationError("sample: features must be a 1-D array")
        if not np.all(np.isfinite(feats)):
            raise ConfigurationError("sample: non-finite feature values")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        if self.payoffs is not None:
            object.__setattr__(self, "payoffs", _checked_payoffs(self.payoffs, self.n))
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def with_payoffs(self, payoffs) -> "SampleSet":
        """This sample with ``payoffs`` attached.  Only the payoffs are
        checked: the features were checked when this sample was built."""
        out = copy.copy(self)
        object.__setattr__(out, "payoffs", _checked_payoffs(payoffs, self.n))
        return out

    @staticmethod
    def joined(parts: Sequence["SampleSet"]) -> "SampleSet":
        """The samples of ``parts`` back to back, with payoffs where every
        part has them, and no meta.  One part is returned as it is.  Each
        part was checked when it was built, so nothing is checked again."""
        if len(parts) == 1:
            return parts[0]
        out = copy.copy(parts[0])
        features = np.concatenate([p.features for p in parts])
        features.setflags(write=False)
        payoffs = None
        if all(p.payoffs is not None for p in parts):
            payoffs = np.concatenate([p.payoffs for p in parts])
            payoffs.setflags(write=False)
        for name, value in (("features", features), ("payoffs", payoffs),
                            ("meta", MappingProxyType({}))):
            object.__setattr__(out, name, value)
        return out


def _checked_payoffs(payoffs, n: int) -> np.ndarray:
    pays = np.asarray(payoffs, dtype=np.float64).reshape(-1)
    if pays.shape[0] != n:
        raise ConfigurationError("sample: payoff length differs from feature rows")
    if not np.all(np.isfinite(pays)):
        raise ConfigurationError("sample: non-finite payoff values")
    pays.setflags(write=False)
    return pays


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def simulate_conditional(law: TruncatedNormal, n: int, seed: int, *,
                         first_block: int = 0) -> SampleSet:
    """Draws of ``law`` via rejection from the untruncated ``N(0, law.var)``,
    whose acceptance rate is ``law.truncation_mass``.

    With ``first_block=j`` the draws start at ``rng`` block ``j``: block ``j``
    of an ``n``-sample draw, alone, is the call with ``min(rng.BLOCK_SIZE,
    n - j * rng.BLOCK_SIZE)`` samples and ``first_block=j``.
    """
    if n < 1:
        raise ConfigurationError("n: must be >= 1")
    if law.truncation_mass < MIN_CONDITIONAL_MASS:
        raise SamplingError(f"domain mass {law.truncation_mass:g} below "
                            f"{MIN_CONDITIONAL_MASS:g}; rejection would stall")
    sigma, lower, upper = law.sigma, law.lower, law.upper

    def draw(gen, m):  # scaled in place: a round holds one array of normals
        z = gen.standard_normal(m)
        return np.multiply(z, sigma, out=z)

    accept = lambda u: (u >= lower) & (u <= upper)
    vals, proposals = rng.block_rejection(n, draw, accept, seed, "conditional", "terminal",
                                          rate=law.truncation_mass, first_block=first_block)
    return SampleSet(vals, meta={"proposals": proposals, "acceptance_rate": n / proposals})


def truncated_feature_law(feat: FeatureSpec, epsilon: float) -> TruncatedNormal:
    """Law of a univariate feature of Brownian motion, exactly N(0, eval_time),
    conditioned on its central 1 - epsilon mass (inverse-CDF edges)."""
    if feat.kind != "terminal":
        raise ConfigurationError(f"feature.kind: no analytic law for {feat.kind!r}")
    if not (0 < epsilon < 1):
        raise ConfigurationError("epsilon: must lie in (0, 1)")
    half = ndtri(1.0 - epsilon / 2.0) * float(np.sqrt(feat.eval_time))
    return TruncatedNormal(feat.eval_time, -half, half)
