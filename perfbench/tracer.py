"""Outside-in span tracer for reglater sweeps.

The tracer replaces module attributes that the layers call through (for
example ``reglater.harness.regress_later_fit`` or ``reglater._kernels.binned_qr``)
with wrappers that record one span per call, and puts the original objects
back when it is closed.  Nothing under ``src/`` is edited: a layer that looks a
name up in its own module, or as ``module.attr``, at call time reaches the
wrapper.

Each span holds its name, layer, start, end, parent span and sweep id, plus
work counts recorded where the work happens (draws, kept samples, kernel
samples, computed input bytes).  Spans stay in memory until the benchmark
writes them out.  Every thread keeps its own span stack, so spans opened in a
worker thread nest under the sweep span that the main thread holds open while
it waits on the pool.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Counted work is recorded as float64 input sizes; the kernels convert every
# argument to contiguous float64 before use.
F64_BYTES = 8


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    sweep: int
    start: float = 0.0
    end: float = 0.0
    work: dict = field(default_factory=dict)

    def to_list(self) -> list:
        return [self.id, self.name, self.layer, self.parent, self.sweep,
                self.start, self.end, self.work]


def _count_draws(span: Span, bound: inspect.BoundArguments, callable_arg: str) -> None:
    """Record kept samples and wrap the proposal callable to count draws."""
    draw = bound.arguments[callable_arg]
    span.work["kept"] = int(bound.arguments["n"])
    span.work["draws"] = 0

    def counted(gen, m):
        span.work["draws"] += int(m)
        return draw(gen, m)

    bound.arguments[callable_arg] = counted


def _count_rejection(span, bound):
    _count_draws(span, bound, "propose")


def _count_block_map(span, bound):
    _count_draws(span, bound, "draw_block")


def _count_binned_qr(span, bound):
    args = bound.arguments
    span.work["samples"] = int(args["u"].shape[0])
    span.work["bytes_in"] = F64_BYTES * sum(int(getattr(a, "size", 1)) for a in args.values())


def _count_bin_indices(span, bound):
    args = bound.arguments
    span.work["samples"] = int(getattr(args["u"], "size", 1))
    span.work["bytes_in"] = F64_BYTES * sum(int(getattr(a, "size", 1)) for a in args.values())


def _count_condexp(span, bound):
    span.work["points"] = int(getattr(bound.arguments["state"], "size", 1))


# (module, attribute, layer, counter).  The module is where the caller looks
# the name up, which is not always where the function is defined.
TARGETS = (
    ("reglater.cli", "main", "cli", None),
    ("reglater.cli", "atomic_write", "cli", None),
    ("reglater.config", "load_config", "config", None),
    ("reglater.harness", "run_growing_K", "harness", None),
    ("reglater.harness", "run_fixed_K", "harness", None),
    ("reglater.harness", "now_vs_later_compare", "harness", None),
    ("reglater.harness", "truncated_feature_law", "model", None),
    ("reglater.harness", "simulate_conditional", "model", None),
    ("reglater.rng", "block_rejection", "rng", _count_rejection),
    ("reglater.rng", "block_map", "rng", _count_block_map),
    ("reglater.harness", "eval_payoff", "payoff", None),
    ("reglater.harness", "oracle_conditional", "payoff", None),
    ("reglater.harness", "build_basis", "basis", None),
    ("reglater.harness", "projection_coefficients", "basis", None),
    ("reglater.harness", "approx_error_moments", "basis", None),
    ("reglater.harness", "h_tilde", "basis", None),
    ("reglater.harness", "regress_later_fit", "regress", None),
    ("reglater.harness", "regress_now_fit", "regress", None),
    ("reglater.harness", "coefficient_error", "regress", None),
    ("reglater.harness", "predict", "regress", None),
    ("reglater.regress", "predict", "regress", None),
    ("reglater.harness", "condexp_estimate", "condexp", _count_condexp),
    ("reglater._kernels", "binned_qr", "_kernels", _count_binned_qr),
    ("reglater._kernels", "bin_indices", "_kernels", _count_bin_indices),
)

FIT_SPANS = ("regress.regress_later_fit", "regress.regress_now_fit")


class Tracer:
    """Install with ``with Tracer() as t:``; open a sweep with ``t.sweep()``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._sweep_id = 0
        self._home: list[Span] | None = None

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, layer, counter in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, f"{layer}.{attr}", layer, counter))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def originals(self) -> list[tuple[object, str, object]]:
        """The (module, attribute, original object) triples currently replaced."""
        return list(self._saved)

    @contextmanager
    def sweep(self):
        """Mark one whole sweep; worker-thread spans nest under this thread's
        innermost open span."""
        self._sweep_id += 1
        self._home = self._stack()
        try:
            yield self._sweep_id
        finally:
            self._home = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str, counter):
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            else:
                home = tracer._home
                parent = home[-1].id if home else None
            span = Span(next(tracer._ids), name, layer, parent, tracer._sweep_id)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                counter(span, bound)
                args, kwargs = bound.args, bound.kwargs
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.  Children
    from several worker threads overlap, so their union is subtracted."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
            for s in spans}


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and work counters of one sweep's spans."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def under_fit(s: Span) -> bool:
        p = s.parent
        while p is not None and p in by_id:
            if by_id[p].name in FIT_SPANS:
                return True
            p = by_id[p].parent
        return False

    layer_s: dict[str, float] = {}
    name_s: dict[str, float] = {}
    out = {"rng.draws": 0, "rng.kept": 0, "_kernels.binned_qr_samples": 0,
           "_kernels.bytes_in_computed": 0, "fit_lookups": 0, "regress.fits": 0,
           "condexp.calls": 0, "condexp.points": 0}
    for s in spans:
        layer_s[s.layer] = layer_s.get(s.layer, 0.0) + own[s.id]
        name_s[s.name] = name_s.get(s.name, 0.0) + own[s.id]
        w = s.work
        out["rng.draws"] += w.get("draws", 0)
        out["rng.kept"] += w.get("kept", 0)
        out["_kernels.bytes_in_computed"] += w.get("bytes_in", 0)
        if s.name == "_kernels.binned_qr":
            out["_kernels.binned_qr_samples"] += w["samples"]
        elif s.name == "_kernels.bin_indices" and under_fit(s):
            out["fit_lookups"] += w["samples"]
        elif s.name in FIT_SPANS:
            out["regress.fits"] += 1
        elif s.layer == "condexp":
            out["condexp.calls"] += 1
            out["condexp.points"] += w["points"]
    out.update({
        "rng.busy_s": layer_s.get("rng", 0.0),
        "_kernels.binned_qr_s": name_s.get("_kernels.binned_qr", 0.0),
        "_kernels.bin_indices_s": name_s.get("_kernels.bin_indices", 0.0),
        "regress.busy_s": layer_s.get("regress", 0.0),
        "model.busy_s": layer_s.get("model", 0.0),
        "payoff.busy_s": layer_s.get("payoff", 0.0),
        "basis.setup_s": layer_s.get("basis", 0.0),
        "condexp.busy_s": layer_s.get("condexp", 0.0),
        "harness.self_s": layer_s.get("harness", 0.0),
        "config.load_s": layer_s.get("config", 0.0),
        "cli.write_s": name_s.get("cli.atomic_write", 0.0),
    })
    return out
