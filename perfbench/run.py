"""Whole-sweep benchmark of reglater.

    python3 perfbench/run.py --workload growing_k [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run it from the root of a source checkout: the package is imported from
``src/`` of that checkout, never from an installed copy.  The load is one
process running one whole sweep at a time (a closed loop of one client), at
``--workers`` 1 and 2.  The workload seed defaults to the config's seed and
reaches the program only as ``--seed`` / ``seed``.

``--trace 0`` measures what a user sees: ``setup_s`` (a fresh interpreter
importing reglater and loading the workload config, median of several),
``sweep_s`` / ``sweep_s_w2`` (median wall time of warm whole sweeps, report
writing included), ``peak_rss_mb`` (``ru_maxrss`` over the workers=1 sweeps)
and ``completed_frac`` (completed repetitions / attempted; a failure share
would read 0 on every healthy run, so its complement is reported).  ``--trace 1``
alternates untraced and traced sweeps and reports per-layer self times and
work counters from the traced ones (see ``tracer.py``), plus the tracing
overhead.  Every sweep passes a correctness gate, and every ``report.csv`` of
a run must be byte-identical; a failed gate fails the run.

The BLAS thread pool is left as the environment sets it, and the setting is
recorded: pinning it would hide the oversubscription of the two cores at
workers=2, which a change to the program may fix.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Reports, spans and
work counters are written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import selftest
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SRC = ROOT / "src"

MIN_ROUNDS = 3           # measuring rounds per run, however short --seconds is
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    config: str
    overrides: tuple[str, ...]
    paired: bool
    bands: Callable[[dict], list[str]]  # the paper's bands on report.json; problems found
    why: str


def growing_k_bands(report: dict) -> list[str]:
    """Criterion 4: MSE slope in K and mse/approx per row."""
    out = []
    if not -5.0 <= report["slope"] <= -3.0:
        out.append(f"slope {report['slope']} outside [-5,-3]")
    ratios = [r["mse_mean"] / r["approx_l2"] for r in report["rows"]]
    if not all(0.5 <= q <= 2.0 for q in ratios):
        out.append(f"mse/approx {ratios} outside [0.5,2]")
    return out


def fixed_k_bands(report: dict) -> list[str]:
    """Criterion 5: plateau statistic and the 1e4 -> 1e5 MSE drop."""
    out = []
    plateau = report["plateau_statistic"]
    if not 1.0 <= plateau <= 1.5:
        out.append(f"plateau {plateau} outside [1.0,1.5]")
    by_n = {r["N"]: r["mse_mean"] for r in report["rows"]}
    drop = (by_n[10_000] - by_n[100_000]) / by_n[10_000]
    if drop > 0.10:
        out.append(f"MSE drop 1e4->1e5 {drop} > 10%")
    return out


def paired_bands(report: dict) -> list[str]:
    """Criterion 7's band on the Regress-Now slope, and Regress-Later below
    Regress-Now at every N."""
    # Not rate_gap > 0: at fixed K = 8 the Regress-Later MSE sits on its
    # approximation floor, so its N-slope is flatter than Regress-Now's
    # (rate_gap < 0 at every seed tried).  What holds is that Regress-Later,
    # free of projection error, is the more accurate estimator at every N.
    out = []
    slope_now = report["slope_now"][0]
    if not -1.3 <= slope_now <= -0.7:
        out.append(f"Regress-Now slope {slope_now} outside [-1.3,-0.7]")
    for r in report["rows"]:
        if not r["mse_later_mean"] < r["mse_now_mean"]:
            out.append(f"N={r['N']}: Regress-Later MSE {r['mse_later_mean']} "
                       f">= Regress-Now {r['mse_now_mean']}")
    return out


# Why each workload: the three stress different layers, so a change aimed at
# one of them is seen where it works and checked where it should not matter.
WORKLOADS = {
    "growing_k": Workload(
        "configs/figure1.json", (), False, growing_k_bands,
        "figure1 as shipped: 500 small fits, so sampling (6.2 draws per kept "
        "sample) and per-call overheads lead; memory stays at the import floor"),
    "fixed_k_large_n": Workload(
        "configs/figure2.json", ("N_list=[10000,100000,1000000]", "repetitions=10"), False,
        fixed_k_bands,
        "figure2 at N up to 1e6, 10 reps: few large fits, so the per-bin QR "
        "kernel and bin lookup lead; the only workload where peak RSS moves"),
    "paired_now_later": Workload(
        "configs/now_vs_later_fixed.json", (), True, paired_bands,
        "now_vs_later_fixed via now_vs_later_compare: the only path through "
        "Regress-Now, the condexp transfer, block_map draws and the paired "
        "fan-out in harness"),
}

PAIRED_CSV_HEADER = "K,N,reps,mse_later_mean,mse_later_stderr,mse_now_mean,mse_now_stderr"

# Per-layer metrics reported at each worker count as "w<workers>.<name>".
LAYER_METRICS = (
    ("rng.busy_s", "s"), ("rng.draws", "count"), ("rng.kept", "count"),
    ("rng.draws_per_kept", "ratio"),
    ("_kernels.binned_qr_s", "s"), ("_kernels.binned_qr_samples", "count"),
    ("_kernels.binned_qr_ns_per_sample", "ns"), ("_kernels.bin_indices_s", "s"),
    ("_kernels.lookups_per_fit_sample", "ratio"), ("_kernels.bytes_in_computed", "bytes"),
    ("regress.busy_s", "s"), ("regress.fits", "count"),
    ("model.busy_s", "s"), ("payoff.busy_s", "s"), ("basis.setup_s", "s"),
    ("condexp.calls", "count"), ("condexp.points", "count"),
    ("harness.self_s", "s"), ("harness.reps", "count"), ("harness.failed_reps", "count"),
    ("config.load_s", "s"), ("cli.write_s", "s"), ("trace.overhead_frac", "ratio"),
)
# Exact work counters: identical in every traced sweep of one code version and seed.
COUNTERS = ("rng.draws", "rng.kept", "_kernels.binned_qr_samples",
            "_kernels.bytes_in_computed", "fit_lookups", "regress.fits",
            "condexp.calls", "condexp.points", "harness.reps", "harness.failed_reps")


class GateError(Exception):
    """A sweep's output failed the correctness gate."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def import_reglater():
    """Import reglater from this checkout's src/; raise if it is not there."""
    if not (SRC / "reglater" / "__init__.py").is_file():
        raise RuntimeError(f"no reglater sources under {SRC}; run from a reglater checkout")
    sys.path.insert(0, str(SRC))
    import reglater
    import reglater.cli  # noqa: F401  (the CLI module is what the sweeps call)

    if Path(reglater.__file__).resolve().parent != (SRC / "reglater").resolve():
        raise RuntimeError(f"imported reglater from {reglater.__file__}, not from {SRC}")
    return reglater


def metadata(reglater) -> dict:
    import numpy as np
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    threads = {k: os.environ.get(k, "unset") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "git_sha": sha,
        "kernel_backend": reglater._kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads_env": threads,
        "loadavg_at_start": list(os.getloadavg()),
    }


def cpu_ticks() -> list[int] | None:
    """Aggregate CPU tick counters from /proc/stat (user ... steal), if any."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_frac(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between:
    on a shared host this is what makes whole runs slower or faster."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def source_digest() -> str:
    """Digest of the package sources, keying the stored work counters."""
    h = hashlib.sha256()
    for p in sorted((SRC / "reglater").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# one sweep
# ---------------------------------------------------------------------------

@dataclass
class Sweep:
    seconds: float
    attempted: int
    failed: int


class Runner:
    """Runs whole sweeps of one workload and gates their outputs."""

    def __init__(self, reglater, name: str, seed: int | None):
        self.rl = reglater
        self.name = name
        self.workload = WORKLOADS[name]
        cfg = reglater.config.load_config(ROOT / self.workload.config,
                                          list(self.workload.overrides))
        self.seed = cfg.seed if seed is None else seed
        self.points = cfg.points()
        self.reps = cfg.repetitions
        self.reference_csv: bytes | None = None

    def overrides(self) -> list[str]:
        return list(self.workload.overrides) + [f"seed={self.seed}"]

    def outdir(self, workers: int) -> Path:
        return OUT / "reports" / f"{self.name}-seed{self.seed}" / f"w{workers}"

    def sweep(self, workers: int) -> Sweep:
        """Run one whole sweep, timed from the entry point to the written
        report, then gate it.  Raises GateError on a wrong output."""
        outdir = self.outdir(workers)
        attempted = len(self.points) * self.reps
        if self.workload.paired:
            t0 = time.perf_counter()
            failed = self._paired(workers, outdir)
            seconds = time.perf_counter() - t0
        else:
            argv = ["run", str(ROOT / self.workload.config), "-o", str(outdir),
                    "--seed", str(self.seed), "--workers", str(workers)]
            for item in self.workload.overrides:
                argv += ["--set", item]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = self.rl.cli.main(argv)
                seconds = time.perf_counter() - t0
            if rc != 0:
                failed = attempted
            else:
                report = json.loads((outdir / "report.json").read_text())
                failed = len(report["failures"])
        if failed:
            return Sweep(seconds, attempted, failed)
        self._gate(outdir)
        return Sweep(seconds, attempted, 0)

    def _paired(self, workers: int, outdir: Path) -> int:
        """Paired sweep through harness.now_vs_later_compare, written like
        the CLI writes its reports.  Returns the failed repetitions: the
        paired path aborts on any failure, so a raise fails them all."""
        rl = self.rl
        try:
            cfg = rl.config.load_config(ROOT / self.workload.config, self.overrides())
            report = rl.harness.now_vs_later_compare(cfg, workers=workers)
        except (rl.ReglaterError, FloatingPointError):
            return len(self.points) * self.reps
        lines = [PAIRED_CSV_HEADER] + [
            f"{r.K},{r.N},{r.reps},{r.mse_later_mean!r},{r.mse_later_stderr!r},"
            f"{r.mse_now_mean!r},{r.mse_now_stderr!r}" for r in report.rows]
        rl.cli.atomic_write(outdir / "report.csv", "\n".join(lines) + "\n")
        rl.cli.atomic_write(outdir / "report.json",
                            json.dumps(report.to_json_dict(), indent=2) + "\n")
        return 0

    def _gate(self, outdir: Path) -> None:
        csv = (outdir / "report.csv").read_bytes()
        report = json.loads((outdir / "report.json").read_text())
        rows = report["rows"]
        problems = []
        if [(r["K"], r["N"]) for r in rows] != [tuple(p) for p in self.points]:
            problems.append(f"rows {[(r['K'], r['N']) for r in rows]} != points {self.points}")
        for r in rows:
            if r["reps"] != self.reps:
                problems.append(f"row K={r['K']} N={r['N']}: reps {r['reps']} != {self.reps}")
            bad = [k for k, v in r.items() if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                problems.append(f"row K={r['K']} N={r['N']}: non-finite {bad}")
        if not problems:
            problems += self.workload.bands(report)
        if self.reference_csv is None:
            self.reference_csv = csv
        elif csv != self.reference_csv:
            problems.append("report.csv differs from the run's first sweep (criterion 10)")
        if problems:
            raise GateError(f"{self.name} seed {self.seed}: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import reglater, reglater.config
reglater.config.load_config(sys.argv[2], sys.argv[3:])
print(time.perf_counter() - t0)
"""


def setup_time(runner: Runner) -> float:
    """Fresh-interpreter time to import reglater and load and validate the
    workload config."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(ROOT / runner.workload.config),
         *runner.overrides()],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_rounds(seconds: float, one_round) -> None:
    """Call one_round() at least MIN_ROUNDS times, then until another round
    would likely end past ``seconds``."""
    start = time.perf_counter()
    n = 0
    while True:
        one_round()
        n += 1
        elapsed = time.perf_counter() - start
        if n >= MIN_ROUNDS and elapsed * (n + 1) / n > seconds:
            return


def timed(sweep: Sweep, counts: dict) -> float:
    counts["attempted"] += sweep.attempted
    counts["failed"] += sweep.failed
    return sweep.seconds


def highest_tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it."""
    return math.floor(100 * (n - 10) / n) if n > 10 else None


def describe(label: str, values: list[float], unit: str) -> str:
    text = (f"{label:<28} {statistics.median(values):.6g} {unit}  "
            f"(median of {len(values)}; min {min(values):.6g}, max {max(values):.6g}")
    p = highest_tail_percentile(len(values))
    if p is not None:
        text += f"; p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return text + ")\n" + " " * 29 + "samples in order: " + " ".join(f"{v:.4g}" for v in values)


def measure_end_to_end(runner: Runner, seconds: float, counts: dict) -> dict:
    # Rounds interleave workers=1, workers=2 and a set-up so that all three
    # sample the same spells of load from the rest of the machine.
    setup_time(runner)  # untimed: fills the bytecode and file caches
    runner.sweep(1)  # warm-up: the first sweep in a process is slower and is not timed
    setup, w1, w2, rss = [], [], [], []

    def one_round():
        w1.append(timed(runner.sweep(1), counts))
        if not w2:  # ru_maxrss is a high-water mark: read it before any workers=2 sweep
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        w2.append(timed(runner.sweep(2), counts))
        setup.append(setup_time(runner))

    run_rounds(seconds, one_round)
    rss_mb = rss[0]
    print(describe("setup_s", setup, "s"))
    print(describe("sweep_s (workers=1)", w1, "s"))
    print(describe("sweep_s_w2 (workers=2)", w2, "s"))
    print(f"{'peak_rss_mb':<28} {rss_mb:.6g} MB  (ru_maxrss over the workers=1 sweeps)")
    completed = 1 - counts["failed"] / counts["attempted"]
    print(f"{'completed_frac':<28} {completed:.6g}  "
          f"({counts['attempted'] - counts['failed']} of {counts['attempted']} repetitions)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "sweep_s": (statistics.median(w1), "s"),
        "sweep_s_w2": (statistics.median(w2), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "completed_frac": (completed, "ratio"),
    }


def traced_sweep(runner: Runner, workers: int) -> tuple[Sweep, dict, list]:
    with tracer.Tracer() as t:
        with t.sweep():
            s = runner.sweep(workers)
        replaced = t.originals()
    for module, attr, original in replaced:
        if getattr(module, attr) is not original:
            raise GateError(f"{module.__name__}.{attr} was not restored after tracing")
    summary = tracer.summarize(t.spans)
    summary["harness.reps"] = s.attempted
    summary["harness.failed_reps"] = s.failed
    return s, summary, t.spans


def measure_layers(runner: Runner, seconds: float, counts: dict) -> dict:
    runner.sweep(1)  # warm-up, untimed
    plain = {1: [], 2: []}
    traced = {1: [], 2: []}
    summaries = {1: [], 2: []}
    spans_out = []

    def one_round():
        for workers in (1, 2):
            plain[workers].append(timed(runner.sweep(workers), counts))
            sweep, summary, spans = traced_sweep(runner, workers)
            traced[workers].append(timed(sweep, counts))
            summaries[workers].append(summary)
            spans_out.append({"workers": workers, "spans": [x.to_list() for x in spans]})

    run_rounds(seconds, one_round)
    counters = {k: summaries[1][0][k] for k in COUNTERS}
    for summary in summaries[1] + summaries[2]:
        got = {k: summary[k] for k in COUNTERS}
        if got != counters:
            raise GateError(f"work counters differ between traced sweeps: {got} != {counters}")

    metrics: dict = {}
    for workers in (1, 2):
        med = {k: statistics.median(s[k] for s in summaries[workers])
               for k in summaries[workers][0]}
        med.update(counters)
        med["rng.draws_per_kept"] = med["rng.draws"] / med["rng.kept"]
        med["_kernels.binned_qr_ns_per_sample"] = (
            1e9 * med["_kernels.binned_qr_s"] / med["_kernels.binned_qr_samples"])
        med["_kernels.lookups_per_fit_sample"] = (
            med["fit_lookups"] / med["_kernels.binned_qr_samples"])
        med["trace.overhead_frac"] = (statistics.median(traced[workers])
                                      / statistics.median(plain[workers]) - 1)
        print(describe(f"untraced sweep (workers={workers})", plain[workers], "s"))
        print(describe(f"traced sweep (workers={workers})", traced[workers], "s"))
        for name, unit in LAYER_METRICS:
            metrics[f"w{workers}.{name}"] = (med[name], unit)
            value = med[name] if isinstance(med[name], int) else f"{med[name]:.6g}"
            print(f"  w{workers}.{name:<36} {value} {unit}")
        print(f"  w{workers}.{'condexp.busy_s':<36} {med['condexp.busy_s']:.6g} s"
              "  (printed only: 0 off the paired path)")
    check_counters_repeat(runner, counters)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{runner.name}-seed{runner.seed}.json").write_text(json.dumps(
        {"span_fields": ["id", "name", "layer", "parent", "sweep", "start", "end", "work"],
         "sweeps": spans_out}))
    return metrics


def check_counters_repeat(runner: Runner, counters: dict) -> None:
    """Work counters must repeat exactly across runs of the same sources and
    seed; the first run stores them, later runs compare."""
    path = OUT / "counters" / f"{runner.name}-seed{runner.seed}-{source_digest()}.json"
    print("work counters: " + ", ".join(f"{k}={v}" for k, v in counters.items()))
    if path.exists():
        stored = json.loads(path.read_text())
        if stored != counters:
            raise GateError(f"work counters differ from an earlier run: {counters} != {stored}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counters))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the config's seed)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time, in rounds of workers=1 and workers=2 sweeps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the tracer against a tiny sweep and exit")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        reglater = import_reglater()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest.main(reglater, ROOT, OUT)

    try:
        runner = Runner(reglater, args.workload, args.seed)
    except reglater.ConfigurationError as exc:
        print(f"perfbench: config error: {exc}", file=sys.stderr)
        return 2
    meta = metadata(reglater)
    meta.update(workload=args.workload, seed=runner.seed, trace=args.trace,
                why=runner.workload.why)
    print("meta: " + json.dumps(meta))
    counts = {"attempted": 0, "failed": 0}
    ticks = cpu_ticks()
    try:
        if args.trace:
            selftest.check(reglater, ROOT, OUT)
            metrics = measure_layers(runner, args.seconds, counts)
        else:
            metrics = measure_end_to_end(runner, args.seconds, counts)
        correct = counts["failed"] == 0
    except (GateError, selftest.SelfTestError) as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        metrics, correct = {}, False
    meta["host_steal_frac"] = steal_frac(ticks, cpu_ticks())
    print(f"host steal during the run: {meta['host_steal_frac']}")
    result = {"correct": correct, "attempted": max(counts["attempted"], 1),
              "failed": counts["failed"] if correct else max(counts["failed"], 1),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{runner.name}-seed{runner.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
