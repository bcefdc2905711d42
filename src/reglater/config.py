"""Versioned JSON experiment configs, and the one config gate.

Validation is fail-closed: unknown keys anywhere in the document are
rejected, and every complaint names the offending field.  A silent typo in a
rate experiment would corrupt the whole report, so nothing is guessed.
``ExperimentConfig`` makes every check a sweep makes before sampling, and
builds every basis the sweep will fit on; the sweep engine (``harness``)
is not imported to validate a config.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .basis import SieveBasis, build_basis, h_tilde
from .distributions import TruncatedNormal
from .errors import BasisConstructionError, ConfigurationError
from .model import MIN_CONDITIONAL_MASS, FeatureSpec, truncated_feature_law
from .payoff import PayoffSpec, eval_payoff

SCHEMA_VERSION = 2
# report.csv headers, here so that ``reglater plot`` needs no sweep engine
CSV_HEADER = "K,N,reps,mse_mean,mse_stderr,approx_l2,h_tilde"
PAIRED_CSV_HEADER = "K,N,reps,mse_later_mean,mse_later_stderr,mse_now_mean,mse_now_stderr"
# schema-1 sections that schema 2 deleted, and what took their place
REMOVED_SECTIONS = {
    "process": "every date comes from the feature",
    "eval": "every point is evaluated by quadrature",
}

# Most samples one repetition may draw: N.  Repetitions stream their samples
# one rng block at a time, so memory does not grow with N (peak RSS about 8 MB
# above the import floor at N = 2**20 and at 2**25, and about 2 MB above that
# of a process that has already run one small repetition); the cap bounds the
# time of one repetition instead, about 1.5-1.9 s at the cap for a K = 5 fit
# on a 2-vCPU x86-64 VM.
MAX_POINT_SAMPLES = 2**25
# Most rejection proposals one repetition may draw: its samples over the
# domain's mass, 1 - domain_epsilon.  Rejection draws every proposal, and a
# mass near 0 multiplies the time of a repetition without bound where the
# sample cap does not see it; at 2**26 any mass of at least 0.5 fits at the
# sample cap.
MAX_POINT_PROPOSALS = 2**26
# Most repetitions per point.  A sweep holds every repetition's value until
# it aggregates, and each point's list of batches while it runs the point;
# worker threads keep only a few tasks per worker in flight.  Where each
# repetition is a batch of its own (N above half an rng block) that costs
# about 160 B of RSS per repetition (260 B for the paired comparison's value
# pairs; 150 and 230 B traced by tracemalloc) at 1, 2 or 8 workers on a
# 2-vCPU x86-64 VM: about 0.16-0.26 GB per point at the cap.
MAX_REPETITIONS = 10**6
# Most bins of a basis (K, in K_list or basis-dump -K).  The gate builds every
# basis a sweep fits on before it samples, at about 3.8 KB of RSS per bin:
# validate-config took 0.36 s and 74 MB at K = 10,000, 1.7 s and 287 MB at
# K = 65,536 and 3.1 s and 417 MB at K = 100,000 on a 2-vCPU x86-64 VM.  The
# sample cap alone admits K up to 2**24, and by extrapolation an 8 GB host
# runs out of memory from about K = 2,000,000; the cap keeps one basis under
# 0.3 GB.
MAX_BINS = 2**16
# Most worker threads (``reglater run --workers``).  The pool starts a thread per
# submitted task up to ``workers``, so an uncapped count near the task count (up to
# MAX_REPETITIONS per point) asks for more threads than a Linux host allows (a few
# 10**4); threads share one interpreter, so a sweep gains little past a few.
MAX_WORKERS = 64


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Everything a sweep needs.  Construction makes every check a sweep
    makes before sampling, raising ``ConfigurationError`` naming the field.
    Fields are in the order ``report.json`` echoes them (``asdict``)."""

    name: str
    payoff: PayoffSpec
    feature: FeatureSpec
    sweep: str  # growing_K | fixed_K
    K_list: tuple[int, ...]
    N_rule: tuple[float, float] | None = None  # N = ceil(c * K**b)
    N_list: tuple[int, ...] | None = None
    repetitions: int
    seed: int
    domain_epsilon: float = 1e-4

    def __post_init__(self):
        if self.sweep not in ("growing_K", "fixed_K"):
            raise ConfigurationError(f"sweep: unknown kind {self.sweep!r}")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions: must be >= 1")
        if self.repetitions > MAX_REPETITIONS:
            raise ConfigurationError(f"repetitions: {self.repetitions} exceed the cap of "
                                     f"{MAX_REPETITIONS}")
        seed_bound = 1 << (rng.KEY_INT_BITS - 1)
        if not -seed_bound <= self.seed < seed_bound:
            raise ConfigurationError(
                f"seed: {self.seed} lies outside the signed {rng.KEY_INT_BITS}-bit range "
                f"of the rng's keys [-2**{rng.KEY_INT_BITS - 1}, 2**{rng.KEY_INT_BITS - 1})")
        if not self.K_list or any(k < 1 for k in self.K_list):
            raise ConfigurationError("K_list: needs at least one K >= 1")
        if self.N_rule is not None and not all(map(math.isfinite, self.N_rule)):
            raise ConfigurationError(f"N_rule: c and b must be finite, got {self.N_rule}")
        if self.sweep == "growing_K":
            if (self.N_rule is None) == (self.N_list is None):
                raise ConfigurationError("N_rule, N_list: growing_K needs exactly one of them")
            if self.N_list is not None and len(self.N_list) != len(self.K_list):
                raise ConfigurationError("N_list: growing_K needs one N per K in K_list")
        else:
            if len(self.K_list) != 1:
                raise ConfigurationError("fixed_K: exactly one K")
            if not self.N_list:
                raise ConfigurationError("fixed_K: needs an explicit N_list")
            if self.N_rule is not None:
                raise ConfigurationError("N_rule: fixed_K takes its N from N_list, not a rule")
        if not (0 < self.domain_epsilon < 1):
            raise ConfigurationError("domain_epsilon: must lie in (0, 1)")
        if 1.0 - self.domain_epsilon / 2.0 == 1.0:  # the domain's ends, ndtri(1.0), are inf
            raise ConfigurationError(f"domain_epsilon: {self.domain_epsilon!r} leaves no finite "
                                     "domain (1 - domain_epsilon/2 rounds to 1)")
        mass = 1.0 - self.domain_epsilon
        if mass < MIN_CONDITIONAL_MASS:  # the sampler refuses it, rejection would stall
            raise ConfigurationError(
                f"domain_epsilon: {self.domain_epsilon!r} leaves a domain mass of {mass:.3g}, "
                f"below the {MIN_CONDITIONAL_MASS:g} that rejection sampling needs")
        laws = _sweep_laws(self)
        n_field = "N_rule" if self.N_list is None else "N_list"  # where each N comes from
        seen = set()
        for K, N in self.points():
            if N < 2 * K + 1:
                raise ConfigurationError(f"{n_field}: point (K={K}, N={N}) needs N >= 2K+1")
            if N > MAX_POINT_SAMPLES:  # .3g raises OverflowError on an int past the float range
                n = f"{N:.3g}" if N <= sys.float_info.max else f"~1e+{len(str(N)) - 1}"
                raise ConfigurationError(f"{n_field}: point (K={K}, N={n}) draws more samples "
                                         f"per repetition than the cap of {MAX_POINT_SAMPLES}")
            if N / mass > MAX_POINT_PROPOSALS:
                raise ConfigurationError(
                    f"domain_epsilon: {self.domain_epsilon!r} makes point (K={K}, N={N}) draw "
                    f"about {N / mass:.3g} rejection proposals per repetition, "
                    f"above the cap of {MAX_POINT_PROPOSALS}")
            if (K, N) in seen:  # its repetitions would redraw the same samples
                field = "N_list" if self.sweep == "fixed_K" else "K_list"
                raise ConfigurationError(f"{field}: point (K={K}, N={N}) repeats")
            seen.add((K, N))
        if self.feature.kind == "pair_u_T" and self.payoff.kind not in ("square", "identity"):
            raise ConfigurationError(
                f"payoff.kind: the paired comparison needs a closed-form oracle payoff "
                f"(square or identity), not {self.payoff.kind!r}")
        law_T = laws[0]  # the fit law at the payoff date
        strike = self.payoff.strike
        if not _finite_mse_spread(self.payoff, law_T):
            field = ("payoff.strike" if strike is not None and abs(strike) > law_T.upper
                     else "feature.eval_time")
            raise ConfigurationError(
                f"{field}: the {self.payoff.kind} payoff is too large on the domain at "
                f"eval_time {self.feature.eval_time!r} for the MSE's standard error to be finite")
        if self.payoff.kind == "call" and strike >= law_T.upper:
            raise ConfigurationError(
                f"payoff.strike: {strike!r} is at or above the fit domain's upper end "
                f"{law_T.upper!r}, so the call pays nothing on it and every row is 0")
        # every basis the sweep builds, on every law it fits on
        for dist, K in itertools.product(laws, sorted(set(self.K_list))):
            checked_basis(self, dist, K)

    def points(self) -> list[tuple[int, int]]:
        """(K, N) per sweep point, in report order."""
        if self.sweep == "fixed_K":
            return [(self.K_list[0], int(n)) for n in self.N_list]
        if self.N_list is not None:
            return list(zip(self.K_list, (int(n) for n in self.N_list)))
        return [(K, _ruled_N(*self.N_rule, K)) for K in self.K_list]


def checked_basis(config: ExperimentConfig, dist: TruncatedNormal, K: int) -> SieveBasis:
    """The basis at ``K`` on ``dist``, one of the fit laws of ``config``,
    once the checks a sweep makes on it pass: it is built and its
    ``h_tilde`` is finite.  ``ConfigurationError`` naming the field
    otherwise, before any build where ``K`` exceeds ``MAX_BINS``."""
    if K > MAX_BINS:
        raise ConfigurationError(f"K: {K} bins exceed the cap of {MAX_BINS}")
    try:
        basis = _basis(dist, K)
    except BasisConstructionError as exc:
        raise ConfigurationError(
            f"domain_epsilon: {config.domain_epsilon!r} leaves no basis at K={K} ({exc})"
        ) from None
    # the report's h_tilde column is h_tilde(basis, dist) / N, finite for
    # every N once this is; at a time scale far from 1 its fourth moments
    # overflow or underflow
    with np.errstate(all="ignore"):  # the value is checked, not warned about
        if not math.isfinite(h_tilde(basis, dist)):  # name the date of dist's law
            date = "eval_time" if dist.var == config.feature.eval_time else "intermediate_time"
            raise ConfigurationError(f"feature.{date}: {getattr(config.feature, date)!r} "
                                     f"gives a non-finite h_tilde at K={K}")
    return basis


@functools.lru_cache(maxsize=64)
def _basis(dist: TruncatedNormal, K: int) -> SieveBasis:
    """``build_basis(dist, K)``, built once per process: the config gate
    builds every basis of a sweep and the sweep reuses them.  Sharing is safe,
    a ``SieveBasis`` holds only read-only arrays."""
    return build_basis(dist, K)


def _finite_mse_spread(payoff: PayoffSpec, law: TruncatedNormal) -> bool:
    """Whether the square of a squared payoff-scale error is finite on the
    fit domain ``[law.lower, law.upper]``.

    A repetition's MSE is a mean of squared errors between payoff-scale values
    (for ``square`` of order eval_time**2), and its standard error squares the
    deviations of those MSEs once more (``harness._mean_stderr``, on Python
    floats, which raise ``OverflowError``).  Every payoff kind is largest in
    magnitude at an end of an interval, so ``2 * max |g(lower)|, |g(upper)|``
    bounds the scale of an error."""
    with np.errstate(all="ignore"):  # the value is checked, not warned about
        g = max(abs(eval_payoff(payoff, law.lower)), abs(eval_payoff(payoff, law.upper)))
    err = (2.0 * g) * (2.0 * g)
    return math.isfinite(err * err)


def _ruled_N(c: float, b: float, K: int) -> int:
    """N = ceil(c * K**b) of a sweep point; ``ConfigurationError`` where it
    is not finite."""
    try:
        return int(math.ceil(c * K**b))
    except OverflowError:
        raise ConfigurationError(f"N_rule: N = ceil({c!r} * {K}**{b!r}) is not finite") from None


def _sweep_laws(config: ExperimentConfig) -> list[TruncatedNormal]:
    """The truncated feature laws a sweep fits on: the law of the feature,
    or for ``pair_u_T`` the laws of W at its payoff date and at its
    intermediate date, in that order."""
    feat = config.feature
    if feat.kind != "pair_u_T":
        return [truncated_feature_law(feat, config.domain_epsilon)]
    return [truncated_feature_law(FeatureSpec("terminal", t), config.domain_epsilon)
            for t in (feat.eval_time, feat.intermediate_time)]


def _require_mapping(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where}: expected an object")
    return doc


def _check_keys(doc: dict, where: str, required: set[str], optional: set[str]) -> None:
    for key in doc:
        if key not in required and key not in optional:
            raise ConfigurationError(f"{where}.{key}: unknown key (fail-closed schema)")
    for key in required:
        if key not in doc:
            raise ConfigurationError(f"{where}.{key}: missing required key")


def _number(doc: dict, where: str, key: str, default=None):
    if key not in doc:
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigurationError(f"{where}.{key}: expected a number")
    return v


def _integer(doc: dict, where: str, key: str, default=None):
    if key not in doc:
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigurationError(f"{where}.{key}: expected an integer")
    return v


def _string(doc: dict, where: str, key: str, default=None):
    if key not in doc:
        return default
    v = doc[key]
    if not isinstance(v, str):
        raise ConfigurationError(f"{where}.{key}: expected a string")
    return v


def _int_list(doc: dict, where: str, key: str):
    if key not in doc:
        return None
    v = doc[key]
    if (not isinstance(v, list) or not v
            or any(isinstance(x, bool) or not isinstance(x, int) for x in v)):
        raise ConfigurationError(f"{where}.{key}: expected a non-empty list of integers")
    return tuple(v)


def validate_config_dict(doc: dict) -> ExperimentConfig:
    """Turn a parsed JSON document into a validated ExperimentConfig."""
    _require_mapping(doc, "config")
    # before the keys: a document of another version fails once, on its version
    version = _integer(doc, "config", "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    for section, instead in REMOVED_SECTIONS.items():
        if section in doc:
            held = doc[section] if isinstance(doc[section], dict) else {}
            holds = ", ".join(f"{section}.{key}" for key in held)
            raise ConfigurationError(
                f"config.{section}: removed in schema {SCHEMA_VERSION} ({instead}); delete it"
                + (f" and the keys it holds: {holds}" if holds else ""))
    _check_keys(doc, "config",
                required={"schema_version", "feature", "payoff", "sweep", "K_list",
                          "repetitions", "seed"},
                optional={"name", "N_rule", "N_list", "domain_epsilon"})

    f = _require_mapping(doc["feature"], "feature")
    _check_keys(f, "feature", {"kind", "eval_time"}, {"intermediate_time"})
    feature = FeatureSpec(
        kind=_string(f, "feature", "kind"),
        eval_time=_number(f, "feature", "eval_time"),
        intermediate_time=_number(f, "feature", "intermediate_time"),
    )

    g = _require_mapping(doc["payoff"], "payoff")
    _check_keys(g, "payoff", {"kind"}, {"strike"})
    payoff = PayoffSpec(kind=_string(g, "payoff", "kind"), strike=_number(g, "payoff", "strike"))

    n_rule = None
    if "N_rule" in doc:
        r = _require_mapping(doc["N_rule"], "N_rule")
        _check_keys(r, "N_rule", {"c", "b"}, set())
        n_rule = (float(_number(r, "N_rule", "c")), float(_number(r, "N_rule", "b")))

    return ExperimentConfig(
        name=_string(doc, "config", "name", "experiment"),
        payoff=payoff,
        feature=feature,
        sweep=_string(doc, "config", "sweep"),
        K_list=_int_list(doc, "config", "K_list"),
        repetitions=_integer(doc, "config", "repetitions"),
        seed=_integer(doc, "config", "seed"),
        N_rule=n_rule,
        N_list=_int_list(doc, "config", "N_list"),
        domain_epsilon=float(_number(doc, "config", "domain_epsilon", 1e-4)),
    )


def load_config_dict(path: str | Path) -> dict:
    """The JSON object in the UTF-8 file at ``path``; ``ConfigurationError``
    naming the file where it cannot be read or holds no such object."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path}: not UTF-8 text ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file: malformed JSON ({exc})") from exc
    except ValueError as exc:
        raise ConfigurationError(f"config file {path}: {_too_many_digits()}") from exc
    except RecursionError as exc:
        raise ConfigurationError(f"config file {path}: {_TOO_DEEP}") from exc
    # before any override indexes into it
    _require_mapping(doc, f"config file {path}")
    return doc


_TOO_DEEP = "JSON nested too deeply to parse"


def _too_many_digits() -> str:
    """Why ``json.loads`` raised a ``ValueError`` that is no
    ``JSONDecodeError``: an integer literal past Python's limit on the
    digits of an integer string conversion."""
    return f"an integer has more than {sys.get_int_max_str_digits()} digits"


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply ``dotted.path=json_value`` overrides to a config document."""
    out = json.loads(json.dumps(doc))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r}: expected key=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except ValueError as exc:
            raise ConfigurationError(f"override {path}: {_too_many_digits()}") from exc
        except RecursionError as exc:
            raise ConfigurationError(f"override {path}: {_TOO_DEEP}") from exc
        keys = path.split(".")
        cursor = out
        for k in keys[:-1]:
            if not isinstance(cursor.get(k), dict):
                cursor[k] = {}
            cursor = cursor[k]
        cursor[keys[-1]] = value
    return out


def load_config(path: str | Path, overrides: list[str] | None = None) -> ExperimentConfig:
    doc = load_config_dict(path)
    if overrides:
        doc = apply_overrides(doc, overrides)
    return validate_config_dict(doc)
