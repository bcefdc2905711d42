"""The package namespace and what importing it loads."""
import ast
import collections
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reglater

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = str(Path(reglater.__file__).resolve().parent.parent)


def _child_modules(code: str, *args: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


GATE_CHILD = """
import sys
from pathlib import Path
import reglater, reglater.config
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    reglater.config.load_config(path)
"""

# what the config gate does not need: the sweep engine and what only it loads,
# and numpy.polynomial (basis.gauss_legendre computes leggauss's rule itself)
NOT_LOADED_BY_THE_GATE = ("reglater.harness", "reglater.regress", "reglater.condexp",
                          "reglater.cli", "reglater.svgplot", "reglater.tree",
                          "concurrent.futures", "fractions", "numpy.polynomial")


def test_import_and_load_config_leave_the_sweep_engine_unloaded():
    loaded = _child_modules(GATE_CHILD, str(CONFIG_DIR))
    assert "reglater.config" in loaded and "reglater.basis" in loaded
    assert sorted(loaded.intersection(NOT_LOADED_BY_THE_GATE)) == []
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []


VALIDATE_CHILD = """
import sys
from pathlib import Path
import reglater.cli
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    assert reglater.cli.main(["validate-config", str(path)]) == 0, path
"""


def test_validate_config_verb_leaves_the_sweep_engine_unloaded():
    loaded = _child_modules(VALIDATE_CHILD, str(CONFIG_DIR))
    assert "reglater.cli" in loaded
    assert sorted(loaded.intersection(NOT_LOADED_BY_THE_GATE) - {"reglater.cli"}) == []


PLOT_CHILD = """
import sys
from pathlib import Path
import reglater.cli
out = Path(sys.argv[1])
(out / "report.csv").write_text("K,N,reps,mse_mean,mse_stderr,approx_l2,h_tilde\\n"
                                "4,480,3,0.01,0.001,0.008,0.5\\n"
                                "8,1920,3,0.001,0.0001,0.0008,0.5\\n")
assert reglater.cli.main(["plot", str(out / "report.csv"), "-o", str(out / "r.svg")]) == 0
"""


def test_plot_verb_leaves_the_sweep_engine_unloaded(tmp_path):
    loaded = _child_modules(PLOT_CHILD, str(tmp_path))
    assert "reglater.svgplot" in loaded and (tmp_path / "r.svg").exists()
    assert sorted(loaded.intersection(("reglater.harness", "reglater.regress",
                                       "reglater.condexp"))) == []


RUN_CHILD = """
import sys
import reglater.cli
assert reglater.cli.main(["run", sys.argv[1], "-o", sys.argv[2], "--set", "repetitions=2"]) == 0
"""


def test_run_verb_loads_no_numpy_polynomial(tmp_path):
    loaded = _child_modules(RUN_CHILD, str(CONFIG_DIR / "figure1.json"), str(tmp_path))
    assert "reglater.harness" in loaded and (tmp_path / "report.csv").exists()
    assert sorted(m for m in loaded if m.startswith("numpy.polynomial")) == []


def test_cli_import_loads_no_network_or_xml_module():
    # urllib.parse is left out: pathlib imports it, with or without reglater
    loaded = _child_modules("import reglater.cli")
    network = {m for m in loaded
               if m.split(".")[0] in ("http", "email", "ssl", "xml")
               or (m.startswith("urllib.") and m != "urllib.parse")}
    assert sorted(network) == []


def test_every_exported_name_is_its_defining_modules_attribute():
    for name in reglater.__all__:
        module = importlib.import_module(f"reglater.{reglater._EXPORTS.get(name, 'errors')}")
        assert getattr(reglater, name) is getattr(module, name), name


def _names_used(tree: ast.AST) -> set[str]:
    """Names a module reads: bare names, attributes and imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_exported_name_is_used_inside_the_package():
    # the package exports what its verbs run; a name only tests reach
    # belongs in tests/reference.py
    package = Path(reglater.__file__).resolve().parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_used(ast.parse(path.read_text(), str(path)))
    assert sorted(set(reglater._EXPORTS) - used) == []


def test_dir_lists_every_exported_name_and_submodule():
    names = dir(reglater)
    assert "__all__" in names and set(reglater.__all__) <= set(names)
    assert {"harness", "config", "_kernels", "__version__"} <= set(names)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from reglater import *", namespace)
    assert set(reglater.__all__) <= set(namespace)
    assert namespace["run_growing_K"] is reglater.harness.run_growing_K


def test_submodules_resolve_as_attributes():
    code = ("import reglater\n"
            "assert reglater.harness.now_vs_later_compare\n"
            "assert reglater._kernels.BACKEND\n")
    assert "reglater.harness" in _child_modules(code)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        reglater.not_a_name


# the call arguments each benchmark counter reads, by counter
COUNTER_READS = {"_count_rejection": {"n", "propose"}, "_count_block_map": {"n", "draw_block"},
                 "_count_binned_qr": {"u"}, "_count_bin_indices": {"u"},
                 "_count_condexp": {"state"}}


def _load_tracer(monkeypatch):
    """``perfbench/tracer.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclass looks itself up
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_hooks_resolve(monkeypatch):
    # the benchmark's tracer wraps these names and reads these arguments, and its
    # metadata reads the kernel backend: a rename must fail here, not in a benchmark run
    tracer = _load_tracer(monkeypatch)
    for module_name, attr, _layer, counter in tracer.TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert target is not None, f"{module_name}.{attr}"
        if counter is not None:
            params = set(inspect.signature(target).parameters)
            assert COUNTER_READS[counter.__name__] <= params, f"{module_name}.{attr}"
    assert reglater._kernels.BACKEND


def test_benchmark_selftest_passes(monkeypatch, tmp_path):
    # the benchmark's self-test on a tiny figure1 sweep: every kept sample
    # reaches the fit kernel once (rng.kept == sum N * reps ==
    # _kernels.binned_qr_samples), and tracing leaves report.csv byte-identical
    for name in ("tracer", "selftest"):  # selftest imports tracer by that name
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    sys.modules["selftest"].check(reglater, ROOT, tmp_path)


# Spans per wrapped name of one traced run at --workers 2 and two repetitions.
# A change that calls a wrapped name some other way (not through its module's
# globals, or a different number of times) shows here before it zeroes or
# skews a benchmark metric.
SPAN_COUNTS = {
    "figure1": {
        "_kernels.binned_qr": 5, "basis.approx_error_moments": 5, "basis.h_tilde": 5,
        "basis.projection_coefficients": 5, "cli.atomic_write": 2, "cli.main": 1,
        "config.load_config": 1, "harness.run_growing_K": 1,
        "model.simulate_conditional": 10, "payoff.eval_payoff": 5,
        "regress.coefficient_error": 10, "regress.regress_later_fit": 5,
        "rng.block_rejection": 10},
    "now_vs_later_fixed": {
        "_kernels.bin_indices": 6, "_kernels.binned_qr": 12, "cli.atomic_write": 2,
        "cli.main": 1, "config.load_config": 1, "harness.now_vs_later_compare": 1,
        "model.simulate_conditional": 16, "payoff.eval_payoff": 14,
        "payoff.oracle_conditional": 1, "regress.predict": 6, "regress.regress_later_fit": 4,
        "regress.regress_now_fit": 4, "rng.block_map": 8, "rng.block_rejection": 16},
}


@pytest.mark.parametrize("name", sorted(SPAN_COUNTS))
def test_benchmark_span_counts_per_name(name, monkeypatch, tmp_path):
    from reglater import cli

    with _load_tracer(monkeypatch).Tracer() as t:
        assert cli.main(["run", str(CONFIG_DIR / f"{name}.json"), "-o", str(tmp_path),
                         "--workers", "2", "--set", "repetitions=2"]) == 0
    assert collections.Counter(s.name for s in t.spans) == SPAN_COUNTS[name]
