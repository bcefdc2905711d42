"""Convergence-rate experiments: growing-K sweeps, fixed-K sample-size
sweeps, and the paired comparison of the two estimators.

Every repetition draws its sample from a substream keyed by
``(seed, K, N, rep)``, so points are independently reproducible and a report
is a pure function of (config, seed).  A sweep point is a plain ``(K, N)``;
what depends on K alone is built once per distinct K, into a table, before
the sweep.  All three sweeps run on one engine, ``_sweep``, whose task is a
batch: the consecutive repetitions of one point whose samples fill at most
one ``rng.BLOCK_SIZE`` block together (``_batches``).  ``_fit_batch`` joins
the repetitions' samples block by block, fits them in one kernel call per
block, each fit bit for bit the fit of its sample alone, and scores each
fit.  Regress-Later hands the kernel its payoff as a function of the
feature, which the kernel evaluates on each joined block in bin order, so no
block carries payoffs; Regress-Now attaches each block's payoffs from its
continuation normals.  A repetition longer than half a block is a batch of
its own and streams its sample one block at a time: each block (and
Regress-Now's payoffs and continuation normals) is let go of before the next
block is drawn, so a repetition holds one block and its memory does not grow
with N.  Batches run serially or on any number of worker threads; a failed
repetition is recorded in the report's ``failures`` and its batch's other
repetitions still count (a point with none left reports ``reps=0`` and NaN
means).  Aggregation takes values in repetition order and sums with
``math.fsum``, so the emitted CSV is byte-identical for any worker count.
"""
from __future__ import annotations

import collections
import ctypes
import functools
import itertools
import math
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import _kernels, rng
from .basis import (SieveBasis, approx_error_moments, bin_quadrature, h_tilde,
                    projection_coefficients)
# build_basis and truncated_feature_law are not called here (the config gate
# builds the bases and laws); perfbench/tracer.py still looks them up here
from .basis import build_basis  # noqa: F401
from .condexp import BrownianTransition, basis_condexp
from .condexp import condexp_estimate  # noqa: F401  (not called; perfbench/tracer.py wraps it here)
from .config import CSV_HEADER, PAIRED_CSV_HEADER, ExperimentConfig, _basis, _sweep_laws
from .errors import BasisConstructionError, ConfigurationError, SamplingError
from .distributions import TruncatedNormal
from .model import SampleSet, simulate_conditional
from .model import truncated_feature_law  # noqa: F401
from .payoff import PayoffSpec, eval_payoff, oracle_conditional
from .regress import coefficient_error, predict, regress_later_fit, regress_now_fit

_POINT_ERRORS = (BasisConstructionError, SamplingError, FloatingPointError)
# Tasks per worker thread that a threaded sweep keeps submitted and not yet
# consumed: enough that a worker finishing early finds the next task queued,
# and a bound, so the futures held do not grow with the repetition count.
_TASKS_PER_WORKER = 4


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
    standard error (plus/minus 1.96 se).  Needs at least 3 usable points
    and 2 distinct x values."""
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
    if lx.min() == lx.max():
        raise ConfigurationError("slope fit needs at least 2 distinct x values")
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


def _sweep(points: list[tuple[int, int]], reps: int, run_batch: Callable, workers: int
           ) -> tuple[list[list], list[str]]:
    """``run_batch(K, N, batch)`` for every point ``(K, N)`` and every batch
    of its repetitions (``_batches``), serially or on ``workers`` threads.

    ``run_batch`` returns one entry per repetition of ``batch``: its value,
    or the exception of ``_POINT_ERRORS`` that failed it.  Returns each
    point's values in repetition order, and one message per failed
    repetition."""
    tasks = ((i, batch) for i, (_, N) in enumerate(points) for batch in _batches(N, reps))

    def run_task(task):
        i, batch = task
        return i, batch, run_batch(*points[i], batch)

    values: list[list] = [[] for _ in points]
    failures = []
    outcomes = map(run_task, tasks) if workers <= 1 else _in_order(run_task, tasks, workers)
    for i, batch, results in outcomes:
        K, N = points[i]
        for rep, result in zip(batch, results):
            if isinstance(result, Exception):
                failures.append(f"point (K={K}, N={N}) rep {rep}: {result}")
            else:
                values[i].append(result)
    return values, failures


def _in_order(fn: Callable, tasks: Iterable, workers: int) -> Iterator:
    """``fn(task)`` of every task on ``workers`` threads, yielded in task
    order.  At most ``_TASKS_PER_WORKER * workers`` tasks are submitted and
    not yet yielded, so the futures held do not grow with the task count."""
    from concurrent.futures import ThreadPoolExecutor  # only threaded sweeps load it

    window = _TASKS_PER_WORKER * workers
    pending: collections.deque = collections.deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for task in tasks:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, task))
        while pending:
            yield pending.popleft().result()


def _fit_batch(fit: Callable, streams: list[Iterator[SampleSet]], value: Callable) -> list:
    """``fit(blocks, fits)`` of every repetition of a batch in one call, and
    ``value`` of each repetition's coefficients (its row of the result).

    ``streams`` has one iterator of sample blocks per repetition.  Block 0
    of each stream is drawn first, so a repetition whose sampling fails
    drops out alone; the rest are fitted together on their blocks joined
    block by block (only a repetition alone in its batch has more than one).
    Returns one entry per repetition: ``value(coefficients)``, or the
    exception of ``_POINT_ERRORS`` that failed its sampling, its fit or its
    value; an exception the call itself raises fails all of its
    repetitions."""
    out: list = [None] * len(streams)
    live, first = [], []
    for i, stream in enumerate(streams):
        try:
            first.append(next(stream))
        except _POINT_ERRORS as exc:
            out[i] = exc
        else:
            live.append(i)
    if not live:
        return out
    # No block outlives the draw of the next: a list iterator lets go of its
    # list once exhausted (a list among chain's arguments would hold block 0
    # for the whole fit), and map, unlike zip, keeps no tuple of the last parts.
    blocks = itertools.chain(iter([SampleSet.joined(first)]),
                             map(lambda *parts: SampleSet.joined(parts),
                                 *(streams[i] for i in live)))
    first.clear()  # the joined block holds these samples now
    try:
        results = fit(blocks, len(live))
    except _POINT_ERRORS as exc:
        results = [exc] * len(live)
    for i, result in zip(live, results):
        if not isinstance(result, Exception):
            try:
                result = value(result)
            except _POINT_ERRORS as exc:
                result = exc
        out[i] = result
    return out


def _keep_block_memory() -> None:
    """Let the C allocator reuse one sample block's memory for the next.

    A batch allocates and frees a few MB of block-sized numpy temporaries
    per rng block: the sampler's, the joined sample (and Regress-Now's
    payoffs), and those of the whole-block passes of ``_kernels.binned_qr``
    (its sort order, one array of two block-length rows, a product row and
    the ``np.repeat`` spreads of per-bin scalars).
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


def _sample_blocks(law: TruncatedNormal, n: int, seed: int) -> Iterator[SampleSet]:
    """``simulate_conditional(law, n, seed)`` one rng block at a time, so a
    repetition never holds more than ``rng.BLOCK_SIZE`` samples."""
    size = rng.BLOCK_SIZE
    for j in range(-(-n // size)):
        yield simulate_conditional(law, min(size, n - j * size), seed, first_block=j)


def _later_fits(payoff: PayoffSpec, dist: TruncatedNormal, basis: SieveBasis, N: int,
                seeds: list[int], value: Callable) -> list:
    """``value`` of each seed's Regress-Later fit of ``payoff`` on ``basis`` to
    ``N`` draws from ``dist``, all in one ``_fit_batch``; the kernel pays off
    each joined block once, in bin order."""
    # built per call from the module global, so a wrapper of harness.eval_payoff
    # sees each kernel call's payoffs
    target = functools.partial(eval_payoff, payoff)
    return _fit_batch(lambda blocks, g: regress_later_fit(blocks, basis, g, target),
                      [_sample_blocks(dist, N, seed) for seed in seeds], value)


def _run_points(config: ExperimentConfig, workers: int) -> ConvergenceReport:
    """The growing-K or fixed-K sweep of ``config``, on the feature law at
    the payoff date; its slope is against K or N, as ``config.sweep`` says."""
    if config.feature.kind == "pair_u_T":
        raise ConfigurationError("feature.kind: a 'pair_u_T' config is the paired comparison's; "
                                 "run it with now_vs_later_compare")
    start = time.perf_counter()
    _keep_block_memory()
    dist = _sweep_laws(config)[0]
    sweep_variable = "K" if config.sweep == "growing_K" else "N"

    # per distinct K: the basis, the projection, the floor and E[(e^T e)^2]
    tables = {}
    for K in dict.fromkeys(config.K_list):
        basis = _basis(dist, K)
        alpha = projection_coefficients(config.payoff, basis, dist)
        approx = approx_error_moments(config.payoff, basis, dist, coefficients=alpha)
        tables[K] = basis, alpha, approx.mean_square, h_tilde(basis, dist)
    points = config.points()

    def run_batch(K: int, N: int, batch: range) -> list:
        basis, alpha, floor, _ = tables[K]
        # the basis is orthonormal, so the MSE is the floor plus the
        # coefficients' squared error, exactly
        return _later_fits(config.payoff, dist, basis, N,
                           [rng.derive_seed(config.seed, K, N, rep) for rep in batch],
                           lambda coef: floor + coefficient_error(coef, alpha))

    values, failures = _sweep(points, config.repetitions, run_batch, workers)
    rows = []
    for (K, N), vals in zip(points, values):
        _, _, floor, moment = tables[K]
        rows.append(ReportRow(K, N, len(vals), *_mean_stderr(vals), floor, moment / N,
                              flagged=not vals))

    sf = _slope_or_nan([r.K if sweep_variable == "K" else r.N for r in rows],
                       [r.mse_mean for r in rows])
    plateau = None
    if config.sweep == "fixed_K":
        last = rows[-1]
        plateau = last.mse_mean / last.approx_l2 if last.approx_l2 > 0 else float("inf")
    return ConvergenceReport(rows, sf.slope, (sf.ci_low, sf.ci_high), sweep_variable,
                             asdict(config), time.perf_counter() - start, failures,
                             plateau)


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


def now_vs_later_compare(config: ExperimentConfig, workers: int = 1) -> PairedReport:
    """Both estimators of the time-t conditional expectation on matched
    (K, N) points; MSEs against the closed-form truth, slopes versus N.

    Needs a pair_u_T feature fixing t and T; ``ExperimentConfig`` then holds
    a payoff with a closed-form conditional expectation (square or
    identity).  A failed repetition is left out of both estimators' means.
    """
    start = time.perf_counter()
    _keep_block_memory()
    if config.feature.kind != "pair_u_T":
        raise ConfigurationError("paired comparison needs a pair_u_T feature (fixes t and T)")
    t = config.feature.intermediate_time
    T = config.feature.eval_time
    dist_T, dist_t = _sweep_laws(config)

    # per distinct K: both bases, a grid at t of 24 Gauss-Legendre nodes per bin of
    # basis_t, its weights times the density at t, the closed-form E[payoff | W_t]
    # on it, and E[e_k(W_T) | W_t], one row per grid state
    tables = {}
    for K in dict.fromkeys(config.K_list):
        basis_T = _basis(dist_T, K)
        basis_t = _basis(dist_t, K)
        grid, wq = bin_quadrature(basis_t, dist_t, 24)
        truth = oracle_conditional(config.payoff, t, T, grid)
        transfer = basis_condexp(BrownianTransition(t, T), basis_T, grid)
        tables[K] = basis_T, basis_t, grid, wq, truth, transfer
    points = config.points()
    scale = math.sqrt(T - t)

    def run_batch(K: int, N: int, batch: range) -> list:
        basis_T, basis_t, grid, wq, truth, transfer = tables[K]
        # Regress-Later: fit the payoff at T, transfer exactly to time t
        later = _later_fits(
            config.payoff, dist_T, basis_T, N,
            [rng.derive_seed(config.seed, "later", K, N, rep) for rep in batch],
            lambda coef: float(np.sum(wq * (truth - transfer @ coef) ** 2)))
        # Regress-Now: states at t, fresh continuations to T, direct regression
        now = _fit_batch(
            lambda blocks, g: regress_now_fit(blocks, basis_t, fits=g),
            [_continued_blocks(
                config.payoff, scale, rng.derive_seed(config.seed, "cont", K, N, rep),
                _sample_blocks(dist_t, N, rng.derive_seed(config.seed, "now", K, N, rep)))
             for rep in batch],
            lambda coef: float(np.sum(wq * (truth - predict(basis_t, coef, grid)) ** 2)))
        # a repetition that failed either estimator counts in neither mean
        return [lat if isinstance(lat, Exception) else mse if isinstance(mse, Exception)
                else (lat, mse) for lat, mse in zip(later, now)]

    values, failures = _sweep(points, config.repetitions, run_batch, workers)
    rows = [PairedRow(K, N, len(vals), *_mean_stderr([lat for lat, _ in vals]),
                      *_mean_stderr([now for _, now in vals]))
            for (K, N), vals in zip(points, values)]

    ns = [r.N for r in rows]
    return PairedReport(rows, _slope_or_nan(ns, [r.mse_later_mean for r in rows]),
                        _slope_or_nan(ns, [r.mse_now_mean for r in rows]),
                        asdict(config), time.perf_counter() - start, failures)


def _continued_blocks(payoff: PayoffSpec, scale: float, seed: int,
                      blocks: Iterable[SampleSet]) -> Iterator[SampleSet]:
    """Each block of states ``w`` with the payoff of ``w + scale * xi``
    attached, where block ``j`` of the continuation normals ``xi`` is rng
    block ``j`` of ``rng.block_standard_normal(n, seed)``.  Neither a block
    nor its ``xi`` is held once the block is handed on."""
    def continued(j: int, block: SampleSet) -> SampleSet:
        xi = rng.block_standard_normal(block.n, seed, first_block=j)
        # w + scale * xi, formed in xi: products and sums commute, so bit for bit
        xi *= scale
        xi += block.features
        return block.with_payoffs(eval_payoff(payoff, xi))

    return map(continued, itertools.count(), blocks)
