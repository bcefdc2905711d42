"""Process simulation and path functionals.

Simulators produce i.i.d. draws of the feature a payoff depends on (terminal
value, path integral, (u, T) pair, basket sum).  All sampling is built on
counter-based substreams, so a ``SampleSet`` is a pure function of
``(spec, n, seed)`` whatever the execution schedule.

The discrete two-asset tree used to show that a basket sum at an early date
does not determine the conditional expectation is evaluated in exact rational
arithmetic, both by node recursion and by flat leaf enumeration.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import ndtri

from . import rng
from .distributions import TruncatedNormal
from .errors import ConfigurationError, SamplingError

PROCESS_KINDS = ("brownian", "gbm", "basket_tree")
FEATURE_KINDS = ("terminal", "path_integral", "pair_u_T", "basket_sum")

DEFAULT_INTEGRAL_STEPS = 256
MIN_CONDITIONAL_MASS = 1e-6


@dataclass(frozen=True)
class ProcessSpec:
    """Underlying process: driftless Brownian motion, martingale GBM with
    S(0)=1 (exact log-normal terminal law), or the discrete two-asset tree."""

    kind: str
    horizon: float
    volatility: float | None = None

    def __post_init__(self):
        if self.kind not in PROCESS_KINDS:
            raise ConfigurationError(f"process.kind: unknown kind {self.kind!r}")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigurationError("process.horizon: must be > 0")
        if self.kind == "gbm":
            sig = self.volatility
            if sig is None or not (np.isfinite(sig) and sig > 0):
                raise ConfigurationError("process.volatility: gbm needs a finite volatility > 0")
        elif self.volatility is not None:
            raise ConfigurationError(f"process.volatility: not meaningful for {self.kind!r}")
        if self.kind == "basket_tree" and self.horizon != 2:
            raise ConfigurationError("process.horizon: basket_tree runs over 2 periods")


@dataclass(frozen=True)
class FeatureSpec:
    """Path functional mapping a path to R^dim, evaluated at ``eval_time``."""

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

    @property
    def dim(self) -> int:
        """Number of coordinates of one feature value: 2 for ``(W_u, W_T)``."""
        return 2 if self.kind == "pair_u_T" else 1


@dataclass(frozen=True)
class Domain:
    """Compact truncation interval together with its probability mass."""

    a1: float
    a2: float
    mass: float

    def __post_init__(self):
        if not (np.isfinite(self.a1) and np.isfinite(self.a2) and self.a1 < self.a2):
            raise ConfigurationError("domain: requires finite a1 < a2")
        if not (0 < self.mass <= 1):
            raise ConfigurationError("domain.mass: must lie in (0, 1]")


@dataclass(frozen=True)
class SampleSet:
    """Immutable i.i.d. draws of (feature value, payoff)."""

    features: np.ndarray
    payoffs: np.ndarray | None
    seed: int
    n: int
    domain_tag: Domain | None = None
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        feats = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        if feats.shape[0] == 1 and self.n != 1:
            feats = feats.T
        if feats.shape[0] != self.n:
            raise ConfigurationError("sample: feature row count differs from n")
        if not np.all(np.isfinite(feats)):
            raise ConfigurationError("sample: non-finite feature values")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        if self.payoffs is not None:
            object.__setattr__(self, "payoffs", _checked_payoffs(self.payoffs, self.n))
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def feature_column(self, j: int = 0) -> np.ndarray:
        return self.features[:, j]

    def with_payoffs(self, payoffs) -> "SampleSet":
        """This sample with ``payoffs`` attached.  Only the payoffs are
        checked: the features were checked when this sample was built."""
        out = copy.copy(self)
        object.__setattr__(out, "payoffs", _checked_payoffs(payoffs, self.n))
        return out

    @staticmethod
    def joined(parts: Sequence["SampleSet"]) -> "SampleSet":
        """The samples of ``parts`` back to back, with payoffs where every
        part has them, carrying the first part's seed and domain and no meta.
        One part is returned as it is.  Each part was checked when it was
        built, so nothing is checked again."""
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
                            ("n", features.shape[0]), ("meta", MappingProxyType({}))):
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

def _check_pair(proc: ProcessSpec, feat: FeatureSpec) -> None:
    allowed = {
        "brownian": {"terminal", "path_integral", "pair_u_T"},
        "gbm": {"terminal", "path_integral"},
        "basket_tree": {"basket_sum"},
    }[proc.kind]
    if feat.kind not in allowed:
        raise ConfigurationError(f"feature.kind: {feat.kind!r} not available for {proc.kind!r}")
    if feat.eval_time > proc.horizon:
        raise ConfigurationError("feature.eval_time: beyond the process horizon")
    if proc.kind == "basket_tree" and feat.eval_time not in (1, 2):
        raise ConfigurationError("feature.eval_time: tree features exist at t=1 or t=2 only")


def _measure_tag(proc: ProcessSpec) -> str:
    if proc.kind == "brownian":
        return f"brownian(T={proc.horizon:g}), driftless"
    if proc.kind == "gbm":
        return f"gbm(sigma={proc.volatility:g}, T={proc.horizon:g}), martingale with S(0)=1"
    return "basket_tree, equiprobable branches"


def _terminal_drawer(proc: ProcessSpec, feat: FeatureSpec) -> Callable:
    """Closure drawing m feature values (univariate kinds) from a generator."""
    t = feat.eval_time
    if proc.kind == "brownian" and feat.kind == "terminal":
        scale = np.sqrt(t)
        return lambda gen, m: scale * gen.standard_normal(m)
    if proc.kind == "gbm" and feat.kind == "terminal":
        sig = proc.volatility
        return lambda gen, m: np.exp(-0.5 * sig * sig * t + sig * np.sqrt(t) * gen.standard_normal(m))
    if feat.kind == "path_integral":
        steps = DEFAULT_INTEGRAL_STEPS
        return lambda gen, m: _draw_path_integrals(proc, t, steps, gen, m)
    if proc.kind == "basket_tree" and feat.kind == "basket_sum":
        sums = np.array([float(leaf.z1_values[int(t) - 1] + leaf.z2_values[int(t) - 1])
                         for leaf in basket_tree_leaf_enumeration()])
        return lambda gen, m: sums[gen.integers(0, len(sums), size=m)]
    raise ConfigurationError(f"no sampler for ({proc.kind}, {feat.kind})")


def simulate_terminal(proc: ProcessSpec, feat: FeatureSpec, n: int, seed: int) -> SampleSet:
    """n i.i.d. draws of the feature value; deterministic in (spec, n, seed)."""
    _check_pair(proc, feat)
    if n < 1:
        raise ConfigurationError("n: must be >= 1")
    meta = {"measure": _measure_tag(proc), "feature": feat.kind}
    if feat.kind == "pair_u_T":
        u, t = feat.intermediate_time, feat.eval_time
        z1 = rng.block_standard_normal(n, seed, "pair-u")
        z2 = rng.block_standard_normal(n, seed, "pair-T")
        w_u = np.sqrt(u) * z1
        w_t = w_u + np.sqrt(t - u) * z2
        feats = np.column_stack([w_u, w_t])
        return SampleSet(feats, None, seed, n, meta=meta)
    if feat.kind == "path_integral":
        return simulate_path_integral(proc, feat.eval_time, DEFAULT_INTEGRAL_STEPS, n, seed)
    draw = _terminal_drawer(proc, feat)
    vals = rng.block_map(n, draw, seed, "terminal", feat.kind)
    return SampleSet(vals.reshape(-1, 1), None, seed, n, meta=meta)


def simulate_conditional(proc: ProcessSpec, feat: FeatureSpec, dom: Domain,
                         n: int, seed: int, *, first_block: int = 0) -> SampleSet:
    """Draws of the feature conditioned on landing in [a1, a2], via rejection.

    With ``first_block=j`` the draws start at ``rng`` block ``j``: block ``j``
    of an ``n``-sample draw, alone, is the call with ``min(rng.BLOCK_SIZE,
    n - j * rng.BLOCK_SIZE)`` samples and ``first_block=j``.
    """
    _check_pair(proc, feat)
    if n < 1:
        raise ConfigurationError("n: must be >= 1")
    if feat.dim != 1:
        raise ConfigurationError("conditioning is defined for univariate features only")
    if dom.mass < MIN_CONDITIONAL_MASS:
        raise SamplingError(
            f"domain mass {dom.mass:g} below {MIN_CONDITIONAL_MASS:g}; rejection would stall")
    draw = _terminal_drawer(proc, feat)
    accept = lambda u: (u >= dom.a1) & (u <= dom.a2)
    vals, proposals = rng.block_rejection(n, draw, accept, seed, "conditional", feat.kind,
                                          first_block=first_block)
    meta = {
        "measure": _measure_tag(proc) + f", conditioned on [{dom.a1:g}, {dom.a2:g}]",
        "feature": feat.kind,
        "proposals": proposals,
        "acceptance_rate": n / proposals,
    }
    return SampleSet(vals.reshape(-1, 1), None, seed, n, domain_tag=dom, meta=meta)


def _draw_path_integrals(proc: ProcessSpec, T: float, steps: int,
                         gen: np.random.Generator, m: int) -> np.ndarray:
    """Trapezoidal integral of m paths on an equispaced grid, drawn from gen."""
    dt = T / steps
    out = np.empty(m)
    chunk = max(1, (1 << 22) // max(steps, 1))  # cap transient path storage
    done = 0
    sig = proc.volatility
    while done < m:
        rows = min(chunk, m - done)
        z = gen.standard_normal((rows, steps))
        w = np.cumsum(z, axis=1) * np.sqrt(dt)
        if proc.kind == "brownian":
            grid = w
            start = 0.0
        elif proc.kind == "gbm":
            tgrid = dt * np.arange(1, steps + 1)
            grid = np.exp(-0.5 * sig * sig * tgrid + sig * w)
            start = 1.0
        else:
            raise ConfigurationError("path integral requires brownian or gbm")
        inner = np.sum(grid[:, :-1], axis=1)
        out[done:done + rows] = dt * (0.5 * start + inner + 0.5 * grid[:, -1])
        done += rows
    return out


def simulate_path_integral(proc: ProcessSpec, T: float, steps: int, n: int, seed: int) -> SampleSet:
    """Feature = integral of Z over [0, T], trapezoid on ``steps`` intervals."""
    if proc.kind not in ("brownian", "gbm"):
        raise ConfigurationError("path integral requires brownian or gbm")
    if steps < 2:
        raise ConfigurationError("steps: must be >= 2")
    if n < 1:
        raise ConfigurationError("n: must be >= 1")
    if not (0 < T <= proc.horizon):
        raise ConfigurationError("T: must lie in (0, horizon]")
    vals = rng.block_map(n, lambda gen, m: _draw_path_integrals(proc, T, steps, gen, m),
                         seed, "path-integral", steps)
    meta = {
        "measure": _measure_tag(proc),
        "feature": "path_integral",
        "discretization": "trapezoid, equispaced grid",
        "steps": steps,
    }
    return SampleSet(vals.reshape(-1, 1), None, seed, n, meta=meta)


# ---------------------------------------------------------------------------
# truncation defaults
# ---------------------------------------------------------------------------

def _gaussian_feature_params(proc: ProcessSpec, feat: FeatureSpec) -> tuple[float, float]:
    """(mean, var) of the feature when it is exactly Gaussian."""
    if proc.kind != "brownian":
        raise ConfigurationError(
            f"process.kind: analytic feature law available for brownian only, not {proc.kind!r}")
    if feat.kind == "terminal":
        return 0.0, feat.eval_time
    if feat.kind == "path_integral":
        return 0.0, feat.eval_time ** 3 / 3.0  # continuum law of the integral
    raise ConfigurationError(f"feature.kind: no analytic law for {feat.kind!r}")


def central_domain(proc: ProcessSpec, feat: FeatureSpec, epsilon: float = 1e-4) -> Domain:
    """Central 1-epsilon interval of the feature law (inverse-CDF edges)."""
    if not (0 < epsilon < 1):
        raise ConfigurationError("epsilon: must lie in (0, 1)")
    z = float(ndtri(1.0 - epsilon / 2.0))
    if proc.kind == "gbm" and feat.kind == "terminal":
        sig, t = proc.volatility, feat.eval_time
        half = sig * np.sqrt(t) * z
        mid = -0.5 * sig * sig * t
        return Domain(float(np.exp(mid - half)), float(np.exp(mid + half)), 1.0 - epsilon)
    mean, var = _gaussian_feature_params(proc, feat)
    half = z * float(np.sqrt(var))
    return Domain(mean - half, mean + half, 1.0 - epsilon)


def truncated_feature_law(proc: ProcessSpec, feat: FeatureSpec,
                          epsilon: float = 1e-4) -> tuple[TruncatedNormal, Domain]:
    """Analytic truncated law of a Gaussian feature plus its domain."""
    mean, var = _gaussian_feature_params(proc, feat)
    dom = central_domain(proc, feat, epsilon)
    return TruncatedNormal(mean, var, dom.a1, dom.a2), dom


# ---------------------------------------------------------------------------
# discrete two-asset tree (exact rational arithmetic)
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)
_TREE_TIME1 = (12, 6)  # both assets move from 10 to 12 or 6 with prob 1/2
_TREE_SUCC1 = {12: ((14, _HALF), (8, _HALF)), 6: ((6, _HALF), (6, _HALF))}
_TREE_SUCC2 = {12: ((14, _HALF), (8, _HALF)), 6: ((9, _HALF), (1, _HALF))}
_TREE_STRIKE = 10


def _tree_payoff(z1_final: int, z2_final: int) -> Fraction:
    return Fraction(max(0, z1_final + z2_final - _TREE_STRIKE))


@dataclass(frozen=True)
class BasketLeaf:
    """One full tree path: values of both assets at t=1 and t=2."""

    z1_values: tuple[int, int]
    z2_values: tuple[int, int]
    probability: Fraction

    @property
    def payoff(self) -> Fraction:
        return _tree_payoff(self.z1_values[1], self.z2_values[1])


@dataclass(frozen=True)
class BasketNodeValue:
    """Time-1 node with its exact conditional expectation of the payoff."""

    z1: int
    z2: int
    probability: Fraction
    expectation: Fraction


def basket_tree_leaf_enumeration() -> list[BasketLeaf]:
    """All 16 leaf paths (coin convention: two branches per node, possibly equal)."""
    leaves = []
    for z1 in _TREE_TIME1:
        for v1, p1 in _TREE_SUCC1[z1]:
            for z2 in _TREE_TIME1:
                for v2, p2 in _TREE_SUCC2[z2]:
                    prob = _HALF * p1 * _HALF * p2
                    leaves.append(BasketLeaf((z1, v1), (z2, v2), prob))
    assert len(leaves) == 16
    return leaves


def basket_tree_expectations() -> list[BasketNodeValue]:
    """Conditional expectations at t=1, by recursion over successor nodes."""
    rows = []
    for z1 in _TREE_TIME1:
        for z2 in _TREE_TIME1:
            total = Fraction(0)
            for v1, p1 in _TREE_SUCC1[z1]:
                for v2, p2 in _TREE_SUCC2[z2]:
                    total += p1 * p2 * _tree_payoff(v1, v2)
            rows.append(BasketNodeValue(z1, z2, _HALF * _HALF, total))
    return rows


def basket_tree_expectations_from_leaves() -> list[BasketNodeValue]:
    """Same table derived by grouping the flat leaf enumeration (oracle)."""
    groups: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    for leaf in basket_tree_leaf_enumeration():
        key = (leaf.z1_values[0], leaf.z2_values[0])
        mass, acc = groups.get(key, (Fraction(0), Fraction(0)))
        groups[key] = (mass + leaf.probability, acc + leaf.probability * leaf.payoff)
    return [BasketNodeValue(z1, z2, mass, acc / mass)
            for (z1, z2), (mass, acc) in sorted(groups.items(), reverse=True)]
