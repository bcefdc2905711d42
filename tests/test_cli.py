import hashlib
import json
import re
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from reglater import cli, harness, rng
from reglater.config import load_config, validate_config_dict
from reglater.errors import ConfigurationError, SamplingError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

TINY_CONFIG = {
    "schema_version": 1,
    "name": "tiny",
    "process": {"kind": "brownian", "horizon": 10.0},
    "feature": {"kind": "terminal", "eval_time": 10.0},
    "payoff": {"kind": "tanh"},
    "sweep": "growing_K",
    "K_list": [4, 6, 8],
    "N_rule": {"c": 30.0, "b": 2.0},
    "repetitions": 3,
    "seed": 99,
}

TINY_PAIRED_CONFIG = dict(
    TINY_CONFIG, name="tiny-paired", payoff={"kind": "square"},
    feature={"kind": "pair_u_T", "eval_time": 10.0, "intermediate_time": 1.0})


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_all_shipped_configs_validate(capsys):
    shipped = sorted(CONFIG_DIR.glob("*.json"))
    assert len(shipped) >= 4
    for path in shipped:
        assert cli.main(["validate-config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ok: ")


MUTATIONS = [
    ("schema_version=2", "schema_version"),
    ("sweep=\"shrinking_K\"", "sweep"),
    ("process.kind=\"levy\"", "process.kind"),
    ("process.horizon=-1", "process.horizon"),
    ("payoff.kind=\"digital\"", "payoff.kind"),
    ("payoff.strike=\"ten\"", "payoff.strike"),
    ("repetitions=0", "repetitions"),
    ("K_list=[]", "K_list"),
    ("N_rule.c=0.001", "N >= 2K+1"),
    ("typo_key=1", "typo_key"),
    ("eval.method=\"bootstrap\"", "eval.method"),
    ("domain_epsilon=2.0", "domain_epsilon"),
    # configs no sweep can run
    ('process={"kind":"gbm","horizon":10.0,"volatility":0.2}', "process.kind"),
    pytest.param(('process={"kind":"basket_tree","horizon":2}',
                  'feature={"kind":"basket_sum","eval_time":2}'), "process.kind",
                 id="basket_tree-process.kind"),
    ('payoff={"kind":"basket_call","strike":1}', "payoff.kind"),
    ("feature.eval_time=20", "feature.eval_time"),
    ('feature={"kind":"pair_u_T","eval_time":10.0,"intermediate_time":1.0}', "payoff.kind"),
    pytest.param(('payoff={"kind":"square"}',
                  'feature={"kind":"pair_u_T","eval_time":10.0,"intermediate_time":0}'),
                 "feature.intermediate_time", id="pair_u_T_at_0-feature.intermediate_time"),
    # removed keys, and volatilities that no sampler reads or that are not finite
    ("process.dimension=1", "process.dimension"),
    ("feature.output_dim=1", "feature.output_dim"),
    ("process.volatility=0.2", "process.volatility"),
    ('process={"kind":"gbm","horizon":10.0,"volatility":Infinity}', "process.volatility"),
]


def _override_list(override) -> list[str]:
    """A ``MUTATIONS`` override, one string or a tuple of them, as a list."""
    return [override] if isinstance(override, str) else list(override)


@pytest.mark.parametrize("override,needle", MUTATIONS)
def test_mutated_configs_rejected_with_field_message(override, needle):
    from reglater.config import apply_overrides

    doc = apply_overrides(TINY_CONFIG, _override_list(override))
    with pytest.raises(ConfigurationError) as err:
        validate_config_dict(doc)
    key = needle.split("=")[0].split(".")[-1].replace(" >= 2K+1", "")
    assert key.split(".")[-1] in str(err.value) or needle in str(err.value)


def test_unknown_nested_key_rejected():
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["process"]["drift"] = 0.1
    with pytest.raises(ConfigurationError, match="process.drift"):
        validate_config_dict(doc)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def test_validate_config_verb(tiny_config_path, capsys):
    assert cli.main(["validate-config", str(tiny_config_path)]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("override,needle", MUTATIONS)
def test_validate_config_and_run_refuse_alike(override, needle, tiny_config_path, tmp_path,
                                              monkeypatch, capsys):
    sets = [arg for item in _override_list(override) for arg in ("--set", item)]
    assert cli.main(["validate-config", str(tiny_config_path), *sets]) == 2
    refused = capsys.readouterr().err
    assert refused.startswith("config error: ") and needle in refused
    err = _run_refused_before_sampling([str(tiny_config_path), *sets], tmp_path, monkeypatch,
                                       capsys)
    assert err == refused


def test_validate_config_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["validate-config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_writes_reports_atomically(tiny_config_path, tmp_path, capsys):
    outdir = tmp_path / "out"
    code = cli.main(["run", str(tiny_config_path), "-o", str(outdir), "--workers", "2"])
    assert code == 0
    csv_text = (outdir / "report.csv").read_text()
    assert csv_text.startswith("K,N,reps,mse_mean,mse_stderr,approx_l2,h_tilde\n")
    assert len(csv_text.strip().splitlines()) == 4
    doc = json.loads((outdir / "report.json").read_text())
    assert doc["slope"] < -3.0
    assert doc["config"]["seed"] == 99
    assert not list(outdir.glob("*.tmp"))


# sha256 of report.csv from `reglater run configs/figure1.json --set
# repetitions=2` on the numpy kernels.  A report is a pure function of
# (config, seed): a change here changes every report and must be deliberate.
FIGURE1_REPS2_CSV_SHA256 = "4bb0b5bb7db1fa05525d0fb57ec87c638023dc830f99c7b8467d1d720fa7f815"


def test_report_csv_golden_digest(tmp_path):
    args = ["run", str(CONFIG_DIR / "figure1.json"), "--set", "repetitions=2", "-o", str(tmp_path)]
    assert cli.main(args) == 0
    digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
    assert digest == FIGURE1_REPS2_CSV_SHA256


# sha256 of report.json, its "wall_time" line removed, from `reglater run` on
# TINY_CONFIG and TINY_PAIRED_CONFIG: pins the rows, slopes, failures and the
# config echo, byte for byte.
TINY_REPORT_JSON_SHA256 = {
    "growing": "3598f4be6d52c882cddf7a5f8d808fce1d9d6e59d15130155215bd474cefddbb",
    "paired": "0b1e93f27c22efe8c224f1cbadcda94f4a6f540e36bcb0703612027463f41f53",
}


@pytest.mark.parametrize("doc,kind", [(TINY_CONFIG, "growing"), (TINY_PAIRED_CONFIG, "paired")],
                         ids=["growing", "paired"])
def test_report_json_golden_digest(doc, kind, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "-o", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "report.json").read_text()
    text, removed = re.subn(r'^  "wall_time": .*\n', "", text, flags=re.M)
    assert removed == 1
    assert hashlib.sha256(text.encode()).hexdigest() == TINY_REPORT_JSON_SHA256[kind]


# sha256 of report.csv from `reglater run configs/figure2.json --set
# N_list=[1000,10000,70000] --set repetitions=2`: the N = 70,000 fits span two
# rng blocks, so this pins the merge of per-block factors as well.
FIGURE2_TWO_BLOCK_CSV_SHA256 = "943409c6d184c62b283da1d9b892934281bdd4301dfb5bab5b2552a962695caf"


def test_multi_block_report_csv_golden_digest(tmp_path):
    assert 70_000 > rng.BLOCK_SIZE
    args = ["run", str(CONFIG_DIR / "figure2.json"), "--set", "N_list=[1000,10000,70000]",
            "--set", "repetitions=2", "-o", str(tmp_path)]
    assert cli.main(args) == 0
    digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
    assert digest == FIGURE2_TWO_BLOCK_CSV_SHA256


def test_run_malformed_config_exits_2_without_partial_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1,')
    outdir = tmp_path / "out"
    assert cli.main(["run", str(bad), "-o", str(outdir)]) == 2
    assert not outdir.exists() or not list(outdir.iterdir())


def test_run_oversized_point_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    # N_rule gives N = 431,588,925 at K = 2000: tens of GB if it were sampled
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an oversized point")

    monkeypatch.setattr(harness, "simulate_conditional", no_sampling)
    outdir = tmp_path / "out"
    args = ["run", str(CONFIG_DIR / "figure1.json"), "--set", "K_list=[4,6,8,12,2000]",
            "-o", str(outdir)]
    tracemalloc.start()
    try:
        code = cli.main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "point (K=2000, N=431588925)" in err
    assert str(harness.MAX_POINT_SAMPLES) in err
    assert peak < 2**20
    assert not outdir.exists()


def test_fresh_sample_multiplier_counts_against_the_cap():
    doc = {key: v for key, v in TINY_CONFIG.items() if key != "N_rule"}
    doc.update(sweep="fixed_K", K_list=[4], eval={"method": "fresh_sample", "multiplier": 10})
    cap = harness.MAX_POINT_SAMPLES
    validate_config_dict(dict(doc, N_list=[1000, cap // 10]))
    with pytest.raises(ConfigurationError, match=f"N={cap // 10 + 1}"):
        validate_config_dict(dict(doc, N_list=[1000, cap // 10 + 1]))
    validate_config_dict(dict(doc, N_list=[cap], eval={"method": "quadrature"}))


def _run_refused_before_sampling(args, tmp_path, monkeypatch, capsys) -> str:
    """Runs ``args`` (config and overrides) and checks that it exits 2 with
    nothing sampled, little allocated and no report written; returns stderr."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a refused config")

    monkeypatch.setattr(harness, "simulate_conditional", no_sampling)
    outdir = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main(["run", *args, "-o", str(outdir)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**20
    assert not outdir.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("override", ["N_rule.c=NaN", "N_rule.b=Infinity", "N_rule.b=1000"])
def test_non_finite_N_rule_exits_2(override, tmp_path, monkeypatch, capsys):
    figure1 = str(CONFIG_DIR / "figure1.json")
    assert cli.main(["validate-config", figure1, "--set", override]) == 2
    assert "config error: N_rule" in capsys.readouterr().err
    err = _run_refused_before_sampling([figure1, "--set", override], tmp_path, monkeypatch,
                                       capsys)
    assert "config error: N_rule" in err


def test_seed_outside_the_rng_key_range_exits_2(tmp_path, monkeypatch, capsys):
    err = _run_refused_before_sampling([str(CONFIG_DIR / "figure1.json"), "--seed", str(2**200)],
                                       tmp_path, monkeypatch, capsys)
    assert "config error: seed" in err
    for seed in (2**127, -2**127 - 1):
        with pytest.raises(ConfigurationError, match="seed"):
            validate_config_dict(dict(TINY_CONFIG, seed=seed))
    for seed in (2**127 - 1, -2**127, 0, -1):  # every seed the rng can key stays valid
        assert validate_config_dict(dict(TINY_CONFIG, seed=seed)).seed == seed
        rng.derive_seed(seed, 4, 480, 0)


def test_repetitions_cap_exits_2_before_any_allocation(tmp_path, monkeypatch, capsys):
    cap = harness.MAX_REPETITIONS
    err = _run_refused_before_sampling([str(CONFIG_DIR / "figure1.json"), "--set",
                                        "repetitions=100000000000"], tmp_path, monkeypatch, capsys)
    assert "config error: repetitions" in err
    assert str(cap) in err
    assert validate_config_dict(dict(TINY_CONFIG, repetitions=cap)).repetitions == cap
    with pytest.raises(ConfigurationError, match="repetitions"):
        validate_config_dict(dict(TINY_CONFIG, repetitions=cap + 1))


def test_run_seed_override_changes_mse_not_approx(tiny_config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(tiny_config_path), "-o", str(out1)]) == 0
    assert cli.main(["run", str(tiny_config_path), "-o", str(out2), "--seed", "123"]) == 0
    rows1 = (out1 / "report.csv").read_text().strip().splitlines()[1:]
    rows2 = (out2 / "report.csv").read_text().strip().splitlines()[1:]
    for r1, r2 in zip(rows1, rows2):
        c1, c2 = r1.split(","), r2.split(",")
        assert c1[3] != c2[3]  # mse_mean moved
        assert c1[5] == c2[5]  # approx_l2 fixed
        assert c1[6] == c2[6]  # h_tilde fixed


@pytest.mark.parametrize("doc", [TINY_CONFIG, TINY_PAIRED_CONFIG], ids=["growing", "paired"])
def test_run_repeat_same_seed_byte_identical(doc, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(path), "-o", str(out1), "--workers", "1"]) == 0
    assert cli.main(["run", str(path), "-o", str(out2), "--workers", "8"]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


@pytest.mark.parametrize("name", ["now_vs_later_fixed.json", "now_vs_later_growing.json"])
def test_run_shipped_paired_configs(name, tmp_path, capsys):
    args = ["run", str(CONFIG_DIR / name), "--set", "repetitions=2", "-o", str(tmp_path)]
    assert cli.main(args) == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "K,N,reps,mse_later_mean,mse_later_stderr,mse_now_mean,mse_now_stderr"
    assert len(lines) == 1 + len(load_config(CONFIG_DIR / name).points())
    assert "slopes later" in capsys.readouterr().out


def test_run_point_without_repetitions_exits_3_after_writing(tiny_config_path, tmp_path,
                                                             monkeypatch, capsys):
    real = harness.simulate_conditional

    def failing(proc, feat, dom, n, seed, **kwargs):
        if n == 1080:  # the K=6 point of TINY_CONFIG
            raise SamplingError("synthetic failure")
        return real(proc, feat, dom, n, seed, **kwargs)

    monkeypatch.setattr(harness, "simulate_conditional", failing)
    outdir = tmp_path / "out"
    assert cli.main(["run", str(tiny_config_path), "-o", str(outdir)]) == 3
    captured = capsys.readouterr()
    assert "3 failed repetitions" in captured.out
    assert "(K=6, N=1080)" in captured.err
    doc = json.loads((outdir / "report.json").read_text())
    assert [r["reps"] for r in doc["rows"]] == [3, 0, 3]
    assert len(doc["failures"]) == 3


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_run_rejects_workers_below_one(workers, tiny_config_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", str(tiny_config_path), "-o", str(tmp_path / "o"), "--workers", workers])
    assert exit_info.value.code == 2
    assert f"--workers: must be at least 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_set_override_applies(tiny_config_path, tmp_path, capsys):
    out = tmp_path / "o"
    code = cli.main(["run", str(tiny_config_path), "-o", str(out),
                     "--set", "repetitions=2", "--set", "K_list=[4,8,16]"])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert [r["K"] for r in doc["rows"]] == [4, 8, 16]
    assert doc["rows"][0]["reps"] == 2


def test_basket_check_verb(capsys):
    assert cli.main(["basket-check"]) == 0
    out = capsys.readouterr().out
    assert "6.25" in out
    assert "Z1(1)= 6 Z2(1)=12" in out and "7" in out
    assert "E[X] = 111/16 (6.9375)" in out


def test_basis_dump_verb(tiny_config_path, tmp_path, capsys):
    target = tmp_path / "basis.json"
    assert cli.main(["basis-dump", str(tiny_config_path), "-K", "8",
                     "-o", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert doc["K"] == 8
    assert len(doc["edges"]) == 9
    assert len(doc["centers"]) == 8
    assert doc["norm0"][0] == pytest.approx(np.sqrt(8))


def test_plot_verb(tiny_config_path, tmp_path, capsys):
    outdir = tmp_path / "out"
    assert cli.main(["run", str(tiny_config_path), "-o", str(outdir)]) == 0
    svg = tmp_path / "fig.svg"
    assert cli.main(["plot", str(outdir / "report.csv"), "-o", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f".//{ns}polyline")
    assert len(polylines) == 2  # mse_mean and approx_l2
    labels = [el.text for el in root.findall(f".//{ns}text")]
    assert any("-4" in (t or "") for t in labels)


def test_plot_rejects_single_row(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    csv.write_text("K,N,reps,mse_mean,mse_stderr,approx_l2,h_tilde\n4,100,1,0.1,0.01,0.09,0.5\n")
    assert cli.main(["plot", str(csv), "-o", str(tmp_path / "x.svg")]) == 2


def test_plot_rejects_wrong_header(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("K,N,mse\n4,100,0.1\n8,400,0.01\n")
    assert cli.main(["plot", str(csv), "-o", str(tmp_path / "x.svg")]) == 2


def test_outdir_env_var_used(tiny_config_path, tmp_path, monkeypatch):
    outdir = tmp_path / "envout"
    monkeypatch.setenv("REGLATER_OUTDIR", str(outdir))
    assert cli.main(["run", str(tiny_config_path), "--set", "repetitions=1"]) == 0
    assert (outdir / "report.csv").exists()


def test_numerical_failure_exits_3(tiny_config_path, tmp_path, monkeypatch, capsys):
    from reglater import harness
    from reglater.errors import SamplingError

    def boom(cfg, workers=1):
        raise SamplingError("synthetic stall")

    monkeypatch.setattr(harness, "run_growing_K", boom)
    monkeypatch.setattr(cli.harness, "run_growing_K", boom)
    assert cli.main(["run", str(tiny_config_path), "-o", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_oracle_spec_validation():
    import reglater as rl
    from reglater.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        rl.OracleSpec("gauss_quadrature", quadrature_points=8)
    with pytest.raises(ConfigurationError):
        rl.OracleSpec("montecarlo")
    with pytest.raises(ConfigurationError):
        rl.OracleSpec(tolerance=0.0)


def test_import_leaves_scipy_linalg_and_integrate_unloaded():
    # no sweep needs them: a fresh `import reglater` must not pay for them
    import os
    import subprocess
    import sys

    import reglater

    code = ("import sys, reglater; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.integrate') if m in sys.modules))")
    src = str(Path(reglater.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip() == "[]"
