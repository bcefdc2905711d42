"""Self-test of the benchmark's tracer, on a tiny sweep (figure1 with two
repetitions).  It checks that:

- while tracing, every target attribute is replaced, and afterwards every one
  is the original object again;
- ``rng.kept`` equals the sum of N times the repetitions, and
  ``_kernels.binned_qr_samples`` equals ``rng.kept``;
- every span but the root has a recorded parent, also in worker threads;
- the traced ``report.csv`` is byte-identical to the untraced one.

Run it alone with ``python3 perfbench/run.py --selftest``; every ``--trace 1``
run also runs it first.
"""
from __future__ import annotations

import contextlib
import importlib
import io
from pathlib import Path

import tracer

CONFIG = "configs/figure1.json"
OVERRIDES = ("repetitions=2",)


class SelfTestError(Exception):
    """The tracer broke one of its own invariants."""


def _cli_run(reglater, root: Path, outdir: Path, workers: int) -> bytes:
    argv = ["run", str(root / CONFIG), "-o", str(outdir), "--workers", str(workers)]
    for item in OVERRIDES:
        argv += ["--set", item]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = reglater.cli.main(argv)
    if rc != 0:
        raise SelfTestError(f"tiny sweep exited {rc}")
    return (outdir / "report.csv").read_bytes()


def check(reglater, root: Path, out: Path) -> None:
    targets = [(importlib.import_module(m), a) for m, a, _, _ in tracer.TARGETS]
    before = [getattr(m, a) for m, a in targets]
    plain = _cli_run(reglater, root, out / "selftest" / "plain", workers=2)
    with tracer.Tracer() as t:
        unwrapped = [f"{m.__name__}.{a}" for (m, a), orig in zip(targets, before)
                     if getattr(m, a) is orig]
        if unwrapped:
            raise SelfTestError(f"not wrapped while tracing: {unwrapped}")
        with t.sweep():
            traced = _cli_run(reglater, root, out / "selftest" / "traced", workers=2)
    left = [f"{m.__name__}.{a}" for (m, a), orig in zip(targets, before)
            if getattr(m, a) is not orig]
    if left:
        raise SelfTestError(f"not restored after tracing: {left}")
    if traced != plain:
        raise SelfTestError("traced report.csv differs from the untraced one")

    cfg = reglater.config.load_config(root / CONFIG, list(OVERRIDES))
    expected = sum(n for _, n in cfg.points()) * cfg.repetitions
    got = tracer.summarize(t.spans)
    if got["rng.kept"] != expected:
        raise SelfTestError(f"rng.kept {got['rng.kept']} != sum N*reps {expected}")
    if got["_kernels.binned_qr_samples"] != got["rng.kept"]:
        raise SelfTestError(f"_kernels.binned_qr_samples {got['_kernels.binned_qr_samples']} "
                            f"!= rng.kept {got['rng.kept']}")
    ids = {s.id for s in t.spans}
    orphans = [s.name for s in t.spans if s.name != "cli.main" and s.parent not in ids]
    if orphans:
        raise SelfTestError(f"spans without a parent: {sorted(set(orphans))}")


def main(reglater, root: Path, out: Path) -> int:
    try:
        check(reglater, root, out)
    except SelfTestError as exc:
        print(f"selftest FAILED: {exc}")
        return 1
    print("selftest ok")
    return 0
