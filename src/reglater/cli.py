"""Command-line front end.

Verbs: run (sweep experiments to CSV/JSON reports; pair_u_T configs run the
paired Regress-Later/Regress-Now comparison), basket-check (exact two-asset
tree table), basis-dump (serialized basis for audits), plot (a plain or
paired report CSV to SVG), validate-config (every check that run makes
before sampling).  Exit codes, mapped from exceptions once in ``main``: 0 ok,
2 config error (``ConfigurationError``, also an input or output path that
cannot be read or written), 3 numerical failure (any other ``ReglaterError``
or a ``FloatingPointError``; also after writing the reports of a run with a
point that has no successful repetition), 4 basket mismatch.  All file
writes are atomic.
"""
from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
import tempfile
from pathlib import Path

from . import config as config_mod
from .errors import ConfigurationError, ReglaterError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BASKET = 4


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it, making
    its directory first; ``ConfigurationError`` naming ``path`` where it
    cannot be written.  The file gets the mode ``open`` gives a new file
    (0666 less the umask)."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigurationError(f"output {path}: cannot write it ({exc})") from None


def _check_writable(path: Path) -> None:
    """``ConfigurationError`` naming ``path`` where ``atomic_write`` could not
    replace it: a directory stands in its place, or its directory takes no
    new file."""
    try:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        tempfile.TemporaryFile(dir=path.parent).close()
    except OSError as exc:
        raise ConfigurationError(f"output {path}: cannot write it ({exc})") from None


def _default_outdir(arg: str | None) -> Path:
    if arg:
        return Path(arg)
    return Path(os.environ.get("REGLATER_OUTDIR", "."))


def _cmd_run(args) -> int:
    from . import harness  # the sweep engine: only run loads it

    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    cfg = config_mod.load_config(args.config, overrides)
    outdir = _default_outdir(args.output_dir)
    try:  # before the sweep, so an unusable path costs no sampling
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"output {outdir}: cannot make the directory ({exc})") from None
    for name in ("report.csv", "report.json"):
        _check_writable(outdir / name)
    if cfg.feature.kind == "pair_u_T":
        report = harness.now_vs_later_compare(cfg, workers=args.workers)
    elif cfg.sweep == "growing_K":
        report = harness.run_growing_K(cfg, workers=args.workers)
    else:
        report = harness.run_fixed_K(cfg, workers=args.workers)
    atomic_write(outdir / "report.csv", report.to_csv_text())
    atomic_write(outdir / "report.json", json.dumps(report.to_json_dict(), indent=2) + "\n")
    if isinstance(report, harness.PairedReport):
        slopes = (f"slopes later {report.slope_later.slope:.3f}, "
                  f"now {report.slope_now.slope:.3f}")
    else:
        slopes = f"slope {report.slope:.3f}"
    print(f"wrote {outdir / 'report.csv'} and {outdir / 'report.json'} "
          f"({slopes}, {len(report.failures)} failed repetitions)")
    empty = [f"(K={r.K}, N={r.N})" for r in report.rows if r.reps == 0]
    if empty:
        print(f"numerical failure: no successful repetition at {', '.join(empty)}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_basket_check(_args) -> int:
    from . import tree  # rational arithmetic (fractions): only this verb loads it

    recursive = tree.basket_tree_expectations()
    flat = tree.basket_tree_expectations_from_leaves()
    by_node = {(row.z1, row.z2): row for row in recursive}
    flat_by_node = {(row.z1, row.z2): row for row in flat}
    if set(by_node) != set(flat_by_node) or any(
            by_node[k].expectation != flat_by_node[k].expectation for k in by_node):
        print("basket-check: recursive and leaf enumerations disagree", file=sys.stderr)
        return EXIT_BASKET

    total = 0
    for (z1, z2), row in sorted(by_node.items(), reverse=True):
        total += row.probability * row.expectation
        print(f"node Z1(1)={z1:>2d} Z2(1)={z2:>2d}  prob={row.probability}  "
              f"E[X|node]={row.expectation} ({float(row.expectation):g})")
    leaf_total = sum(leaf.probability * leaf.payoff
                     for leaf in tree.basket_tree_leaf_enumeration())
    print(f"E[X] = {total} ({float(total):g}); leaf enumeration gives {leaf_total}")
    if total != leaf_total:
        print("basket-check: tower property violated", file=sys.stderr)
        return EXIT_BASKET
    for node, expected in tree.REFERENCE_VALUES.items():
        if by_node[node].expectation != expected:
            print(f"basket-check: node {node} expected {expected}, "
                  f"got {by_node[node].expectation}", file=sys.stderr)
            return EXIT_BASKET
    return EXIT_OK


def _cmd_basis_dump(args) -> int:
    cfg = config_mod.load_config(args.config, args.set or [])
    basis = config_mod.checked_basis(cfg, config_mod._sweep_laws(cfg)[0], args.K)
    text = basis.to_json() + "\n"
    if args.output:
        atomic_write(Path(args.output), text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_plot(args) -> int:
    from . import svgplot

    path = Path(args.report_csv)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except OSError as exc:
        raise ConfigurationError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"report CSV {path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:
        raise ConfigurationError(f"report CSV {path}: malformed CSV ({exc})") from exc
    paired = header == config_mod.PAIRED_CSV_HEADER.split(",")
    if not paired and header != config_mod.CSV_HEADER.split(","):
        raise ConfigurationError(f"report CSV {path}: header must be exactly "
                                 f"{config_mod.CSV_HEADER!r} or {config_mod.PAIRED_CSV_HEADER!r}")
    if len(rows) < 2:
        raise ConfigurationError(f"report CSV {path}: cannot plot a line through fewer than 2 rows")
    # columns 3 and 5: mse_mean and approx_l2, or mse_later_mean and mse_now_mean
    try:
        ks = [int(r[0]) for r in rows]
        ns = [int(r[1]) for r in rows]
        series = {header[c]: [float(r[c]) for r in rows] for c in (3, 5)}
    except (ValueError, IndexError) as exc:
        raise ConfigurationError(f"report CSV {path}: malformed row ({exc})") from exc
    if min(ks + ns) < 1:
        raise ConfigurationError(f"report CSV {path}: K and N must be positive")
    x_label = "N" if paired or len(set(ks)) == 1 else "K"
    guide = ("mse_now_mean", -1.0) if paired else ("mse_mean", -4.0)
    try:
        xs = [float(x) for x in (ns if x_label == "N" else ks)]
        text = svgplot.render_loglog(xs, series, x_label, guide, title=path.stem)
    except OverflowError as exc:  # an x, or the guide through the first point, beyond a float
        raise ConfigurationError(f"report CSV {path}: values too large to plot ({exc})") from exc
    except ValueError as exc:
        raise ConfigurationError(f"report CSV {path}: {exc}") from exc
    atomic_write(Path(args.out_svg), text)
    print(f"wrote {args.out_svg}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = config_mod.load_config(args.config, args.set or [])
    points = ", ".join(f"(K={k}, N={n})" for k, n in cfg.points())
    print(f"ok: {cfg.name} [{cfg.sweep}] points {points}")
    return EXIT_OK


def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {workers}")
    if workers > config_mod.MAX_WORKERS:
        raise argparse.ArgumentTypeError(
            f"must be at most {config_mod.MAX_WORKERS}, got {workers}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reglater",
        description="Regress-Later / Regress-Now estimators and convergence experiments")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run a sweep experiment and write report.csv/json")
    run.add_argument("config")
    run.add_argument("-o", "--output-dir", default=None,
                     help="output directory (default: $REGLATER_OUTDIR or .)")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--workers", type=_worker_count, default=1,
                     help=f"worker threads (1 to {config_mod.MAX_WORKERS})")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config entry (dotted path, JSON value)")
    run.set_defaults(func=_cmd_run)

    basket = sub.add_parser("basket-check", help="print the exact two-asset tree table")
    basket.set_defaults(func=_cmd_basket_check)

    dump = sub.add_parser("basis-dump", help="serialize the basis a config would use")
    dump.add_argument("config")
    dump.add_argument("-K", type=int, required=True, help="number of bins")
    dump.add_argument("-o", "--output", default=None)
    dump.add_argument("--set", action="append", metavar="KEY=VALUE")
    dump.set_defaults(func=_cmd_basis_dump)

    plot = sub.add_parser("plot", help="render a report CSV as a log-log SVG chart")
    plot.add_argument("report_csv")
    plot.add_argument("-o", "--out-svg", required=True)
    plot.set_defaults(func=_cmd_plot)

    val = sub.add_parser("validate-config", help="validate a config file and exit")
    val.add_argument("config")
    val.add_argument("--set", action="append", metavar="KEY=VALUE")
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ReglaterError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
