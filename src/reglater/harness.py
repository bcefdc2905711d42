"""Convergence-rate experiments: growing-K sweeps, fixed-K sample-size
sweeps, and the paired comparison of the two estimators.

Every repetition draws its sample from a substream keyed by
``(seed, K, N, rep)``, so points are independently reproducible and a report
is a pure function of (config, seed).  All three sweeps run on one engine,
``_sweep``, whose task is a batch: the consecutive repetitions of one point
whose samples fill at most one ``rng.BLOCK_SIZE`` block together
(``_batches``).  A batch draws each repetition's sample from its own
substream, joins them (``_fit_batch``) and fits them in one kernel call per
block (``regress_later_fit(..., fits=)``), each fit bit for bit the fit of
its sample alone; Regress-Later pays off the joined samples once.  A repetition longer than half a block is a batch of
its own and streams its sample one block at a time, so memory does not grow
with N.  Batches run serially or on any number of worker threads; a failed
repetition is recorded in the report's ``failures`` and its batch's other
repetitions still count (a point with none left reports ``reps=0`` and NaN
means).  Aggregation takes values in repetition order and sums with
``math.fsum``, so the emitted CSV is byte-identical for any worker count.
"""
from __future__ import annotations

import ctypes
import functools
import itertools
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import _kernels, rng
from .basis import (SieveBasis, approx_error_moments, build_basis, gauss_legendre, h_tilde,
                    projection_coefficients)
from .condexp import BrownianTransition, TransferSpec, condexp_estimate
from .distributions import TruncatedNormal
from .errors import (BasisConstructionError, ConfigurationError, DegenerateDesignError,
                     SamplingError)
from .model import (Domain, FeatureSpec, ProcessSpec, SampleSet, _check_pair,
                    simulate_conditional, truncated_feature_law)
from .payoff import OracleSpec, PayoffSpec, eval_payoff, oracle_conditional
from .regress import coefficient_error, predict, regress_later_fit, regress_now_fit

CSV_HEADER = "K,N,reps,mse_mean,mse_stderr,approx_l2,h_tilde"
PAIRED_CSV_HEADER = "K,N,reps,mse_later_mean,mse_later_stderr,mse_now_mean,mse_now_stderr"
_POINT_ERRORS = (DegenerateDesignError, BasisConstructionError, SamplingError,
                 FloatingPointError)

# Most samples one repetition may draw: N, or eval.multiplier * N for
# fresh-sample evaluation.  Repetitions stream their samples one rng block at
# a time, so memory does not grow with N (peak RSS about 5 MB above the import
# floor at N = 2**20 and at 2**25); the cap bounds the time of one
# repetition instead, about 2.3 s at the cap for a K = 5 fit on a 2-vCPU
# x86-64 VM.
MAX_POINT_SAMPLES = 2**25
# Most repetitions per point.  A sweep builds every point's batch tasks up
# front, and on worker threads holds a future per task.  Where each
# repetition is a batch of its own (N above half an rng block) that costs
# about 4.7 KB of RSS per repetition with 2 or 8 workers on a 2-vCPU x86-64
# VM (1.9 KB traced by tracemalloc), so about 0.47 GB per point at the cap.
MAX_REPETITIONS = 10**5


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Everything a sweep needs.  Construction makes every check a sweep
    makes before sampling, raising ``ConfigurationError`` naming the field.
    Fields are in the order ``report.json`` echoes them (``asdict``)."""

    name: str
    process: ProcessSpec
    payoff: PayoffSpec
    feature: FeatureSpec
    sweep: str  # growing_K | fixed_K
    K_list: tuple[int, ...]
    N_rule: tuple[float, float] | None = None  # N = ceil(c * K**b)
    N_list: tuple[int, ...] | None = None
    repetitions: int
    seed: int
    eval_method: str = "quadrature"  # quadrature | fresh_sample
    eval_multiplier: int = 10
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
            if self.N_rule is None and (self.N_list is None or len(self.N_list) != len(self.K_list)):
                raise ConfigurationError(
                    "growing_K: needs N_rule or an N_list matching K_list")
        else:
            if len(self.K_list) != 1:
                raise ConfigurationError("fixed_K: exactly one K")
            if not self.N_list:
                raise ConfigurationError("fixed_K: needs an explicit N_list")
        if self.eval_method not in ("quadrature", "fresh_sample"):
            raise ConfigurationError(f"eval.method: unknown kind {self.eval_method!r}")
        if self.eval_multiplier < 1:
            raise ConfigurationError("eval.multiplier: must be >= 1")
        if not (0 < self.domain_epsilon < 1):
            raise ConfigurationError("domain_epsilon: must lie in (0, 1)")
        held_per_N = self.eval_multiplier if self.eval_method == "fresh_sample" else 1
        for K, N in self.points():
            if N < 2 * K + 1:
                raise ConfigurationError(f"point (K={K}, N={N}): needs N >= 2K+1")
            if held_per_N * N > MAX_POINT_SAMPLES:
                raise ConfigurationError(
                    f"point (K={K}, N={N}): {held_per_N * N} samples per repetition "
                    f"exceed the cap of {MAX_POINT_SAMPLES}")
        _check_pair(self.process, self.feature)
        _later_law(self)  # raises where the sweep has no feature law to fit on
        if self.payoff.kind == "basket_call":
            raise ConfigurationError("payoff.kind: basket_call needs a vector feature, and "
                                     "every sweep regresses on a univariate one")
        if self.feature.kind == "pair_u_T" and self.payoff.kind not in ("square", "identity"):
            raise ConfigurationError(
                f"payoff.kind: the paired comparison needs a closed-form oracle payoff "
                f"(square or identity), not {self.payoff.kind!r}")

    def points(self) -> list[tuple[int, int]]:
        """(K, N) per sweep point, in report order."""
        if self.sweep == "fixed_K":
            return [(self.K_list[0], int(n)) for n in self.N_list]
        if self.N_list is not None:
            return list(zip(self.K_list, (int(n) for n in self.N_list)))
        return [(K, _ruled_N(*self.N_rule, K)) for K in self.K_list]


def _ruled_N(c: float, b: float, K: int) -> int:
    """N = ceil(c * K**b) of a sweep point; ``ConfigurationError`` where it
    is not finite."""
    try:
        return int(math.ceil(c * K**b))
    except OverflowError:
        raise ConfigurationError(f"N_rule: N = ceil({c!r} * {K}**{b!r}) is not finite") from None


@dataclass(frozen=True)
class ReportRow:
    K: int
    N: int
    reps: int
    mse_mean: float
    mse_stderr: float
    approx_l2: float  # squared L2 approximation error (the MSE floor)
    h_tilde: float
    flagged: bool = False


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    ci_low: float
    ci_high: float


@dataclass
class ConvergenceReport:
    rows: list[ReportRow]
    slope: float
    slope_ci: tuple[float, float]
    sweep_variable: str  # K | N
    config_echo: dict
    wall_time: float
    failures: list[str] = field(default_factory=list)
    plateau_statistic: float | None = None

    def to_csv_text(self) -> str:
        return _csv_text(CSV_HEADER, self.rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": [asdict(r) for r in self.rows],
            "slope": self.slope,
            "slope_ci": list(self.slope_ci),
            "sweep_variable": self.sweep_variable,
            "config": self.config_echo,
            "wall_time": self.wall_time,
            "failures": self.failures,
            "plateau_statistic": self.plateau_statistic,
            "kernel_backend": _kernels.BACKEND,
        }


def _csv_text(header: str, rows) -> str:
    """The header, then per row the fields it names by ``repr`` (exact floats)."""
    lines = [header] + [",".join(repr(getattr(r, n)) for n in header.split(",")) for r in rows]
    return "\n".join(lines) + "\n"


def fit_loglog_slope(xs, ys) -> SlopeFit:
    """Unweighted least squares of log y on log x; CI from the slope's
    standard error (plus/minus 1.96 se)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    ok = np.isfinite(ys) & (ys > 0) & np.isfinite(xs) & (xs > 0)
    if np.any(~ok):
        warnings.warn(f"excluding {int(np.sum(~ok))} nonpositive/undefined points "
                      "from the slope fit", RuntimeWarning, stacklevel=2)
    xs, ys = xs[ok], ys[ok]
    if xs.size < 3:
        raise ConfigurationError("slope fit needs at least 3 usable points")
    lx, ly = np.log(xs), np.log(ys)
    vx = lx - lx.mean()
    sxx = float(vx @ vx)
    slope = float(vx @ (ly - ly.mean()) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    dof = max(xs.size - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / sxx)
    return SlopeFit(slope, intercept, slope - 1.96 * se, slope + 1.96 * se)


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def _mean_stderr(values: list[float]) -> tuple[float, float]:
    m = len(values)
    if m == 0:
        return float("nan"), float("nan")
    mean = math.fsum(values) / m
    if m < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (m - 1)
    return mean, math.sqrt(var / m)


@dataclass(frozen=True)
class _PointSetup:
    K: int
    N: int
    basis: SieveBasis
    alpha: np.ndarray
    approx_ms: float


def _slope_or_nan(xs, ys) -> SlopeFit:
    """``fit_loglog_slope``, quiet, and all NaN below 3 usable points."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return fit_loglog_slope(xs, ys)
        except ConfigurationError:
            return SlopeFit(*[float("nan")] * 4)


def _batches(N: int, reps: int) -> list[range]:
    """A point's repetitions in runs of consecutive ones whose samples fill
    at most one rng block together: ``max(1, rng.BLOCK_SIZE // N)`` each."""
    size = max(1, rng.BLOCK_SIZE // N)
    return [range(lo, min(lo + size, reps)) for lo in range(0, reps, size)]


def _sweep(setups: list, reps: int, run_batch: Callable, workers: int
           ) -> tuple[list[list], list[str]]:
    """``run_batch(setup, batch)`` for every point and every batch of its
    repetitions (``_batches``), serially or on ``workers`` threads.

    ``run_batch`` returns one entry per repetition of ``batch``: its value,
    or the exception of ``_POINT_ERRORS`` that failed it.  Returns each
    point's values in repetition order, and one message per failed
    repetition."""
    tasks = [(i, batch) for i, pt in enumerate(setups) for batch in _batches(pt.N, reps)]

    def run_task(task):
        i, batch = task
        return i, batch, run_batch(setups[i], batch)

    if workers <= 1:
        outcomes = map(run_task, tasks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_task, tasks))
    values: list[list] = [[] for _ in setups]
    failures = []
    for i, batch, results in outcomes:
        pt = setups[i]
        for rep, result in zip(batch, results):
            if isinstance(result, Exception):
                failures.append(f"point (K={pt.K}, N={pt.N}) rep {rep}: {result}")
            else:
                values[i].append(result)
    return values, failures


def _fit_batch(fit: Callable, streams: list) -> list:
    """``fit(blocks, fits)`` of every repetition of a batch in one call.

    ``streams`` has one entry per repetition: an iterator of its sample
    blocks, or the exception that already failed it.  Block 0 of each
    stream is drawn first, so a repetition whose sampling fails drops out
    alone; the rest are fitted together on their blocks joined block by
    block (only a repetition alone in its batch has more than one).
    Returns one entry per repetition: what ``fit`` returned for it, or the
    exception of ``_POINT_ERRORS`` that failed it; an exception the call
    itself raises fails all of its repetitions."""
    out = list(streams)
    live, first = [], []
    for i, stream in enumerate(streams):
        if isinstance(stream, Exception):
            continue
        try:
            first.append(next(stream))
        except _POINT_ERRORS as exc:
            out[i] = exc
        else:
            live.append(i)
    if not live:
        return out
    blocks = itertools.chain([SampleSet.joined(first)],
                             map(SampleSet.joined, zip(*(streams[i] for i in live))))
    first.clear()  # the joined block holds these samples now
    try:
        results = fit(blocks, len(live))
    except _POINT_ERRORS as exc:
        results = [exc] * len(live)
    for i, result in zip(live, results):
        out[i] = result
    return out


def _each(fn: Callable, batch: range, results: list) -> list:
    """``fn(rep, result)`` for every repetition of ``batch`` whose result is
    not an exception; an exception of ``_POINT_ERRORS`` it raises takes the
    repetition's place."""
    out = []
    for rep, result in zip(batch, results):
        if not isinstance(result, Exception):
            try:
                result = fn(rep, result)
            except _POINT_ERRORS as exc:
                result = exc
        out.append(result)
    return out


def _keep_block_memory() -> None:
    """Let the C allocator reuse one sample block's memory for the next.

    A batch allocates and frees a few MB of block-sized numpy temporaries
    per rng block: the sampler's, the joined sample and its payoffs, and
    those of the whole-block passes of ``_kernels.binned_qr`` (two arrays of
    two block-length rows and the ``np.repeat`` spreads of per-bin scalars).
    Under glibc's default dynamic thresholds such arrays are mmapped, or the
    freed top of the heap is handed back to the system, so every block
    page-faults its memory in again (about 1e5 minor faults per
    fixed_k_large_n sweep), and the faults of two worker threads serialize
    on the process's memory map.  Raising both thresholds keeps that memory
    in the process.  A process-wide setting; nothing is done where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library handle, or not glibc
        return
    block_bytes = 8 * rng.BLOCK_SIZE
    mallopt(-3, 4 * block_bytes)  # M_MMAP_THRESHOLD: arrays up to 4 blocks from the heap
    mallopt(-1, 32 * block_bytes)  # M_TRIM_THRESHOLD: keep up to 32 blocks of freed heap


def _sample_blocks(proc: ProcessSpec, feat: FeatureSpec, dom: Domain, n: int,
                   seed: int) -> Iterator[SampleSet]:
    """``simulate_conditional(proc, feat, dom, n, seed)`` one rng block at a
    time, so a repetition never holds more than ``rng.BLOCK_SIZE`` samples."""
    size = rng.BLOCK_SIZE
    for j in range(-(-n // size)):
        yield simulate_conditional(proc, feat, dom, min(size, n - j * size), seed,
                                   first_block=j)


def _payoff_blocks(payoff: PayoffSpec, blocks: Iterable[SampleSet]) -> Iterator[SampleSet]:
    """Each sample block with the payoff of its own feature attached."""
    for block in blocks:
        yield block.with_payoffs(eval_payoff(payoff, block.feature_column()))


def _run_points(config: ExperimentConfig, workers: int) -> ConvergenceReport:
    """The growing-K or fixed-K sweep of ``config``, on the feature law at
    the payoff date; its slope is against K or N, as ``config.sweep`` says."""
    start = time.perf_counter()
    _keep_block_memory()
    dist, dom = _later_law(config)
    sweep_variable = "K" if config.sweep == "growing_K" else "N"

    @functools.cache
    def per_K(K: int) -> tuple[SieveBasis, np.ndarray, float]:
        basis = build_basis(dist, K)
        alpha = projection_coefficients(config.payoff, basis, dist)
        approx = approx_error_moments(config.payoff, basis, dist, coefficients=alpha)
        return basis, alpha, approx.mean_square

    setups = [_PointSetup(K, N, *per_K(K)) for K, N in config.points()]

    def evaluate(pt: _PointSetup, rep: int, fit) -> float:
        if config.eval_method == "quadrature":
            return pt.approx_ms + coefficient_error(fit, pt.basis, config.payoff, dist,
                                                    true_coefficients=pt.alpha)
        eval_seed = rng.derive_seed(config.seed, pt.K, pt.N, rep, "eval")
        n_eval = config.eval_multiplier * pt.N
        sq = []
        for fresh in _sample_blocks(config.process, config.feature, dom, n_eval, eval_seed):
            v = fresh.feature_column()
            err = eval_payoff(config.payoff, v) - predict(pt.basis, fit.coefficients, v)
            sq.append(float(np.sum(err * err)))
        return math.fsum(sq) / n_eval

    def run_batch(pt: _PointSetup, batch: range) -> list:
        streams = [_sample_blocks(config.process, config.feature, dom, pt.N,
                                  rng.derive_seed(config.seed, pt.K, pt.N, rep))
                   for rep in batch]
        fits = _fit_batch(lambda blocks, g: regress_later_fit(
            _payoff_blocks(config.payoff, blocks), pt.basis, fits=g), streams)
        return _each(lambda rep, fit: evaluate(pt, rep, fit), batch, fits)

    values, failures = _sweep(setups, config.repetitions, run_batch, workers)
    rows = []
    for pt, vals in zip(setups, values):
        mean, stderr = _mean_stderr(vals)
        rows.append(ReportRow(pt.K, pt.N, len(vals), mean, stderr, pt.approx_ms,
                              h_tilde(pt.basis, dist, pt.N), flagged=not vals))

    sf = _slope_or_nan([r.K if sweep_variable == "K" else r.N for r in rows],
                       [r.mse_mean for r in rows])
    plateau = None
    if config.sweep == "fixed_K":
        last = rows[-1]
        plateau = last.mse_mean / last.approx_l2 if last.approx_l2 > 0 else float("inf")
    return ConvergenceReport(rows, sf.slope, (sf.ci_low, sf.ci_high), sweep_variable,
                             asdict(config), time.perf_counter() - start, failures,
                             plateau)


def _later_law(config: ExperimentConfig) -> tuple[TruncatedNormal, Domain]:
    """The truncated feature law at the payoff date that a sweep fits on."""
    feat = config.feature
    if feat.kind == "pair_u_T":
        feat = FeatureSpec("terminal", feat.eval_time)
    return truncated_feature_law(config.process, feat, config.domain_epsilon)


def run_growing_K(config: ExperimentConfig, workers: int = 1) -> ConvergenceReport:
    """Sweep K with N(K) samples per repetition; MSE of the fitted payoff
    representation against the truth, floor and net attached per row."""
    if config.sweep != "growing_K":
        raise ConfigurationError("run_growing_K needs a growing_K config")
    return _run_points(config, workers)


def run_fixed_K(config: ExperimentConfig, workers: int = 1) -> ConvergenceReport:
    """Sweep N at constant K; the report carries the plateau statistic
    mse(N_max) / approx_l2."""
    if config.sweep != "fixed_K":
        raise ConfigurationError("run_fixed_K needs a fixed_K config")
    return _run_points(config, workers)


# ---------------------------------------------------------------------------
# paired Regress-Later vs Regress-Now comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairedRow:
    K: int
    N: int
    reps: int
    mse_later_mean: float
    mse_later_stderr: float
    mse_now_mean: float
    mse_now_stderr: float


@dataclass
class PairedReport:
    rows: list[PairedRow]
    slope_later: SlopeFit
    slope_now: SlopeFit
    config_echo: dict
    wall_time: float
    failures: list[str] = field(default_factory=list)

    @property
    def rate_gap(self) -> float:
        """How much steeper (more negative) the Regress-Later N-slope is."""
        return self.slope_now.slope - self.slope_later.slope

    def to_csv_text(self) -> str:
        return _csv_text(PAIRED_CSV_HEADER, self.rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": [asdict(r) for r in self.rows],
            "slope_later": list(self.slope_later),
            "slope_now": list(self.slope_now),
            "rate_gap": self.rate_gap,
            "config": self.config_echo,
            "wall_time": self.wall_time,
            "failures": self.failures,
            "kernel_backend": _kernels.BACKEND,
        }


@dataclass(frozen=True)
class _PairedSetup:
    K: int
    N: int
    basis_T: SieveBasis  # Regress-Later basis, on the law at T
    basis_t: SieveBasis  # Regress-Now basis, on the law at t
    grid: np.ndarray  # evaluation states at t: 24 Gauss-Legendre nodes per bin of basis_t
    wq: np.ndarray  # quadrature weights times the density at t
    truth: np.ndarray  # closed-form E[payoff | state at t] on the grid


def now_vs_later_compare(config: ExperimentConfig, workers: int = 1) -> PairedReport:
    """Both estimators of the time-t conditional expectation on matched
    (K, N) points; MSEs against the closed-form truth, slopes versus N.

    Needs a pair_u_T feature fixing t and T; ``ExperimentConfig`` then holds
    a Brownian process and a payoff with a closed-form conditional
    expectation (square or identity).  A failed repetition is left out of
    both estimators' means.
    """
    start = time.perf_counter()
    _keep_block_memory()
    if config.feature.kind != "pair_u_T":
        raise ConfigurationError("paired comparison needs a pair_u_T feature (fixes t and T)")
    t = config.feature.intermediate_time
    T = config.feature.eval_time
    eps = config.domain_epsilon
    proc = config.process

    feat_T = FeatureSpec("terminal", T)
    feat_t = FeatureSpec("terminal", t)
    dist_T, dom_T = truncated_feature_law(proc, feat_T, eps)
    dist_t, dom_t = truncated_feature_law(proc, feat_t, eps)

    @functools.cache
    def per_K(K: int) -> tuple:
        basis_T = build_basis(dist_T, K)
        basis_t = build_basis(dist_t, K)
        xg, wg = gauss_legendre(24)
        edges = basis_t.partition.edges
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        grid = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        wq = (half[:, None] * wg[None, :]).ravel() * dist_t.density(grid)
        truth = oracle_conditional(config.payoff, proc, t, grid, OracleSpec("closed_form"))
        return basis_T, basis_t, grid, wq, truth

    setups = [_PairedSetup(K, N, *per_K(K)) for K, N in config.points()]

    scale = math.sqrt(T - t)

    def run_batch(pt: _PairedSetup, batch: range) -> list:
        K, N, grid, wq, truth = pt.K, pt.N, pt.grid, pt.wq, pt.truth
        # Regress-Later: fit the payoff at T, transfer exactly to time t
        later = _fit_batch(lambda blocks, g: regress_later_fit(
            _payoff_blocks(config.payoff, blocks), pt.basis_T, fits=g),
            [_sample_blocks(proc, feat_T, dom_T, N,
                            rng.derive_seed(config.seed, "later", K, N, rep)) for rep in batch])

        def transfer_mse(rep: int, fit) -> float:
            spec = TransferSpec(BrownianTransition(t, T), pt.basis_T, fit.coefficients)
            return float(np.sum(wq * (truth - condexp_estimate(spec, grid)) ** 2))

        mse_lat = _each(transfer_mse, batch, later)
        # Regress-Now: states at t, fresh continuations to T, direct regression
        streams = [mse if isinstance(mse, Exception) else _continued_blocks(
            config.payoff, scale, rng.derive_seed(config.seed, "cont", K, N, rep),
            _sample_blocks(proc, feat_t, dom_t, N, rng.derive_seed(config.seed, "now", K, N, rep)))
            for rep, mse in zip(batch, mse_lat)]
        now = _fit_batch(lambda blocks, g: regress_now_fit(blocks, pt.basis_t, fits=g), streams)

        def now_mse(rep: int, fit_diag) -> float:
            coef = fit_diag[0].coefficients
            return float(np.sum(wq * (truth - predict(pt.basis_t, coef, grid)) ** 2))

        # a repetition that failed the Regress-Later stage failed this one too
        return [mse if isinstance(mse, Exception) else (lat, mse)
                for lat, mse in zip(mse_lat, _each(now_mse, batch, now))]

    values, failures = _sweep(setups, config.repetitions, run_batch, workers)
    rows = []
    for pt, vals in zip(setups, values):
        ml, sl = _mean_stderr([lat for lat, _ in vals])
        mn, sn = _mean_stderr([now for _, now in vals])
        rows.append(PairedRow(pt.K, pt.N, len(vals), ml, sl, mn, sn))

    ns = [r.N for r in rows]
    return PairedReport(rows, _slope_or_nan(ns, [r.mse_later_mean for r in rows]),
                        _slope_or_nan(ns, [r.mse_now_mean for r in rows]),
                        asdict(config), time.perf_counter() - start, failures)


def _continued_blocks(payoff: PayoffSpec, scale: float, seed: int,
                      blocks: Iterable[SampleSet]) -> Iterator[SampleSet]:
    """Each block of states ``w`` with the payoff of ``w + scale * xi``
    attached, where block ``j`` of the continuation normals ``xi`` is rng
    block ``j`` of ``rng.block_standard_normal(n, seed)``."""
    for j, block in enumerate(blocks):
        w = block.feature_column()
        xi = rng.block_standard_normal(w.size, seed, first_block=j)
        yield block.with_payoffs(eval_payoff(payoff, w + scale * xi))
