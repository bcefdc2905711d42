import hashlib
import json
import os
import re
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reglater import cli, harness, rng, svgplot
from reglater import config as config_mod
from reglater.config import (MAX_BINS, MAX_POINT_PROPOSALS, MAX_POINT_SAMPLES,
                             MAX_REPETITIONS, MAX_WORKERS, load_config, validate_config_dict)
from reglater.errors import ConfigurationError, SamplingError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

TINY_CONFIG = {
    "schema_version": 2,
    "name": "tiny",
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


# a config as schema 1 wrote it: the version is refused before its removed keys
SCHEMA_1_OVERRIDES = ("schema_version=1", 'process={"kind":"brownian","horizon":10.0}',
                      'eval={"method":"quadrature"}')
PAIRED_SQUARE = 'payoff={"kind":"square"}'


def _pair(T: float, t: float) -> str:
    return f'feature={{"kind":"pair_u_T","eval_time":{T!r},"intermediate_time":{t!r}}}'


MUTATIONS = [
    ("schema_version=1", "schema_version"),
    pytest.param(SCHEMA_1_OVERRIDES, "config.schema_version: expected 2, got 1",
                 id="schema_1_document-schema_version"),
    ("sweep=\"shrinking_K\"", "sweep"),
    ("payoff.kind=\"digital\"", "payoff.kind"),
    ("payoff.strike=\"ten\"", "payoff.strike"),
    ("repetitions=0", "repetitions"),
    ("K_list=[]", "K_list"),
    ("N_rule.c=0.001", "N >= 2K+1"),
    ("typo_key=1", "typo_key"),
    ("domain_epsilon=2.0", "domain_epsilon"),
    # 1 - epsilon/2 rounds to 1, so the domain's ends would be infinite
    ("domain_epsilon=1e-17", "domain_epsilon"),
    # configs no sweep can run
    ('payoff={"kind":"basket_call","strike":1}', "payoff.kind"),
    ('feature={"kind":"pair_u_T","eval_time":10.0,"intermediate_time":1.0}', "payoff.kind"),
    pytest.param(('payoff={"kind":"square"}',
                  'feature={"kind":"pair_u_T","eval_time":10.0,"intermediate_time":0}'),
                 "feature.intermediate_time", id="pair_u_T_at_0-feature.intermediate_time"),
    # sweep points that would be dropped, and bases the sweep cannot build
    ("N_list=[1000]", "N_list"),
    pytest.param(('sweep="fixed_K"', "K_list=[4]", "N_list=[100,1000]"), "N_rule",
                 id="fixed_K_with_N_rule-N_rule"),
    # N = 4 K^2 keeps rejection within MAX_POINT_PROPOSALS, so the K = 8 basis is what fails
    # (its partition misses 1/K by 5.55e-12)
    pytest.param(("domain_epsilon=0.99999", "N_rule.c=4", "K_list=[8]"),
                 "domain_epsilon: 0.99999 leaves no basis at K=8",
                 id="domain_epsilon=0.99999-domain_epsilon"),
    # too little mass for rejection sampling, though the proposals stay under their cap
    pytest.param(("domain_epsilon=0.9999999", "K_list=[1]", 'N_rule={"c":3,"b":0}'),
                 "domain_epsilon: 0.9999999 leaves a domain mass of 1e-07",
                 id="too_little_mass-domain_epsilon"),
    # a payoff that is 0 on the whole fit domain (upper end about 12.3 at eval_time 10)
    pytest.param('payoff={"kind":"call","strike":100}', "payoff.strike: 100 is at or above",
                 id="zero_payoff-payoff.strike"),
    # closed-form row values that are not finite at extreme time scales
    pytest.param(("feature.eval_time=5e299", 'payoff={"kind":"call","strike":1}'),
                 "feature.eval_time", id="overflowing_moments-feature.eval_time"),
    ("feature.eval_time=1e-300", "feature.eval_time"),
    pytest.param((PAIRED_SQUARE, _pair(5e299, 1e299)), "feature.eval_time",
                 id="paired_overflowing_moments-feature.eval_time"),
    pytest.param((PAIRED_SQUARE, _pair(1e-300, 1e-301)), "feature.eval_time",
                 id="paired_underflowing_moments-feature.eval_time"),
    # the law at the intermediate date fails alone: the gate names that date
    pytest.param((PAIRED_SQUARE, _pair(10.0, 1e-300)),
                 "feature.intermediate_time: 1e-300 gives a non-finite h_tilde at K=4",
                 id="paired_underflowing_intermediate-feature.intermediate_time"),
    # MSEs whose standard error squares past the float range (OverflowError)
    pytest.param((PAIRED_SQUARE, _pair(1e80, 1e79)), "feature.eval_time",
                 id="paired_overflowing_stderr-feature.eval_time"),
    pytest.param((PAIRED_SQUARE, "feature.eval_time=1e80"), "feature.eval_time",
                 id="overflowing_stderr-feature.eval_time"),
    pytest.param('payoff={"kind":"call","strike":-1e160}', "payoff.strike",
                 id="overflowing_stderr-payoff.strike"),
    # rejection proposals beyond MAX_POINT_PROPOSALS: 7,680 / 1e-4 at K = 16
    pytest.param(("domain_epsilon=0.9999", "K_list=[16]"), "domain_epsilon",
                 id="runaway_rejection-domain_epsilon"),
    pytest.param(('payoff={"kind":"square"}', "domain_epsilon=0.9999", "N_rule.c=3000",
                  'feature={"kind":"pair_u_T","eval_time":10.0,"intermediate_time":1.0}'),
                 "domain_epsilon", id="paired_runaway_rejection-domain_epsilon"),
    # N = ceil(1e300 * 4**2) at K = 4, named in .3g form
    pytest.param('N_rule={"c":1e300,"b":2}', "N_rule: point (K=4, N=1.6e+301) draws more",
                 id="huge_N-N_rule"),
    # a repeated point redraws the same samples
    ("K_list=[4,4,8]", "K_list"),
    # an integer past Python's int_max_str_digits, which json.loads refuses
    pytest.param("seed=" + "9" * 5001, "override seed: an integer has more than 4300 digits",
                 id="huge_integer-seed"),
    # removed kinds
    ('feature.kind="path_integral"', "feature.kind"),
    ('payoff={"kind":"asian_call","strike":1}', "payoff.kind"),
    # removed keys; schema 2 dates everything from the feature and evaluates by quadrature,
    # and a removed section is refused naming each key it holds
    ("feature.output_dim=1", "feature.output_dim"),
    ('process={"kind":"brownian","horizon":10.0}', "config.process"),
    ('eval={"method":"quadrature"}', "config.eval"),
    ("process.kind=\"levy\"", "process.kind"),
    ("process.horizon=-1", "process.horizon"),
    ("process.dimension=1", "process.dimension"),
    ("process.volatility=0.2", "process.volatility"),
    ('process={"kind":"gbm","horizon":10.0}', "process.kind"),
    ('process={"kind":"gbm","horizon":10.0,"volatility":Infinity}', "process.volatility"),
    pytest.param(('process={"kind":"basket_tree","horizon":2}',
                  'feature={"kind":"basket_sum","eval_time":2}'), "process.kind",
                 id="basket_tree-process.kind"),
    ("eval.method=\"bootstrap\"", "eval.method"),
]


def _override_list(override) -> list[str]:
    """A ``MUTATIONS`` override, one string or a tuple of them, as a list."""
    return [override] if isinstance(override, str) else list(override)


@pytest.mark.parametrize("override,needle", MUTATIONS)
def test_mutated_configs_rejected_with_field_message(override, needle):
    from reglater.config import apply_overrides

    with pytest.raises(ConfigurationError) as err:
        validate_config_dict(apply_overrides(TINY_CONFIG, _override_list(override)))
    key = needle.split("=")[0].split(".")[-1].replace(" >= 2K+1", "")
    assert key.split(".")[-1] in str(err.value) or needle in str(err.value)


def test_unknown_nested_key_rejected():
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["feature"]["drift"] = 0.1
    with pytest.raises(ConfigurationError, match="feature.drift"):
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
FIGURE1_REPS2_CSV_SHA256 = "690deec32de12601f3f23347ac3c7b9f8c0047e744151bac3c7dde21cde11280"


def test_report_csv_golden_digest(tmp_path):
    args = ["run", str(CONFIG_DIR / "figure1.json"), "--set", "repetitions=2", "-o", str(tmp_path)]
    assert cli.main(args) == 0
    digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
    assert digest == FIGURE1_REPS2_CSV_SHA256


# sha256 of report.json, its "wall_time" line removed, from `reglater run` on
# TINY_CONFIG and TINY_PAIRED_CONFIG: pins the rows, slopes, failures and the
# config echo, byte for byte.  Since schema 2 the config echo has no
# "process" block and no "eval_method" or "eval_multiplier" line; the rest of
# the text is as schema 1 wrote it.
TINY_REPORT_JSON_SHA256 = {
    "growing": "28c7e5a814730ff864bb049a076c585790e6c2402e2c257ba2630faa816e043e",
    "paired": "c7fe78550adad1928d0699d038b92b87532fec186b45ae3a4f1449b4a23da144",
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
FIGURE2_TWO_BLOCK_CSV_SHA256 = "e9b87f7d61be0897a657ace23c2cf77ccc8b10a25bc5f4c31307e66efee521b3"


def test_multi_block_report_csv_golden_digest(tmp_path):
    assert 70_000 > rng.BLOCK_SIZE
    args = ["run", str(CONFIG_DIR / "figure2.json"), "--set", "N_list=[1000,10000,70000]",
            "--set", "repetitions=2", "-o", str(tmp_path)]
    assert cli.main(args) == 0
    digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
    assert digest == FIGURE2_TWO_BLOCK_CSV_SHA256


@pytest.mark.parametrize("verb", ["validate-config", "run"])
def test_a_config_file_with_a_huge_integer_exits_2_naming_the_file(verb, tmp_path, capsys):
    # json.loads raises a plain ValueError for an integer past int_max_str_digits
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(TINY_CONFIG).replace('"seed": 99', '"seed": ' + "9" * 5001))
    outdir = tmp_path / "out"
    args = [verb, str(path)] + (["-o", str(outdir)] if verb == "run" else [])
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err == f"config error: config file {path}: an integer has more than 4300 digits\n"
    assert not outdir.exists()


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("content,verb,sets,message", [
    (b"[1, 2]", "run", ["seed=1"], "config file {path}: expected an object"),
    (b'"a string"', "validate-config", ["seed=1"], "config file {path}: expected an object"),
    (b"\xff\xfe{}", "run", [], "config file {path}: not UTF-8 text"),
    (DEEP_JSON.encode(), "validate-config", [],
     "config file {path}: JSON nested too deeply to parse"),
    (json.dumps(TINY_CONFIG).encode(), "run", [f"seed={DEEP_JSON}"],
     "override seed: JSON nested too deeply to parse"),
    (b"\xff\xfeK,N\n", "plot", [], "report CSV {path}: not UTF-8 text"),
    (b"K," + b"1" * 200_000 + b"\n", "plot", [], "report CSV {path}: malformed CSV"),
], ids=["array-with-set", "string-with-set", "config-not-utf8", "config-nested-deep",
        "override-nested-deep", "csv-not-utf8", "csv-field-too-long"])
def test_an_unparseable_input_exits_2_naming_the_file_or_key(content, verb, sets, message,
                                                             tmp_path, capsys):
    path = tmp_path / "input"
    path.write_bytes(content)
    out = tmp_path / "out"
    args = [verb, str(path)] + (["-o", str(out)] if verb != "validate-config" else [])
    assert cli.main(args + [a for s in sets for a in ("--set", s)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message.format(path=path)}")
    assert err.count("\n") == 1
    assert not out.exists()


def test_run_malformed_config_exits_2_without_partial_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 2,')
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
    assert "point (K=2000, N=4.32e+08)" in err
    assert str(MAX_POINT_SAMPLES) in err
    assert peak < 2**20
    assert not outdir.exists()


@pytest.mark.parametrize("name,sets,needle", [
    ("figure2.json", ["K_list=[1]", "N_list=[3000,10000,30000]", "domain_epsilon=0.999999"],
     "domain_epsilon: 0.999999 makes point (K=1, N=3000)"),
    ("now_vs_later_fixed.json", ["domain_epsilon=0.9999"],
     "domain_epsilon: 0.9999 makes point (K=8, N=10000)"),
    ("figure2.json", ["N_list=[1000,1000,1000]"], "N_list: point (K=5, N=1000) repeats"),
    ("now_vs_later_fixed.json", ["N_list=[1000,10000,1000]"],
     "N_list: point (K=8, N=1000) repeats"),
], ids=["runaway_rejection", "paired_runaway_rejection", "repeated_N", "paired_repeated_N"])
def test_fixed_K_refusals_name_the_field(name, sets, needle, capsys):
    args = [arg for item in sets for arg in ("--set", item)]
    assert cli.main(["validate-config", str(CONFIG_DIR / name), *args]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {needle}")


def test_rejection_proposals_count_against_their_cap():
    # domain mass 0.25: 4 proposals per sample, so the proposal cap binds first
    doc = {key: v for key, v in TINY_CONFIG.items() if key != "N_rule"}
    doc.update(sweep="fixed_K", K_list=[4], domain_epsilon=0.75)
    n = MAX_POINT_PROPOSALS // 4
    assert n < MAX_POINT_SAMPLES
    validate_config_dict(dict(doc, N_list=[1000, n]))
    with pytest.raises(ConfigurationError, match=f"domain_epsilon: 0.75 makes point "
                                                 fr"\(K=4, N={n + 1}\)"):
        validate_config_dict(dict(doc, N_list=[1000, n + 1]))


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


def test_a_sample_count_past_the_float_range_is_refused_by_name():
    doc = {key: value for key, value in TINY_CONFIG.items() if key != "N_rule"}
    with pytest.raises(ConfigurationError, match=r"^N_list: point \(K=8, N=~1e\+400\) draws"):
        validate_config_dict(dict(doc, N_list=[100, 200, 10**400]))


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
    cap = MAX_REPETITIONS
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


def test_paired_truth_is_at_the_feature_payoff_date(tmp_path, capsys):
    # the truth and the samples both take T from feature.eval_time: a payoff
    # date of 5 in place of 10 keeps the Regress-Later MSE near its floor
    # (0.003-0.016 here), where a truth at another date is off by about
    # (10 - 5)**2 = 25 on every row
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_PAIRED_CONFIG))
    args = ["run", str(path), "--set", "feature.eval_time=5.0", "-o", str(tmp_path / "o")]
    assert cli.main(args) == 0
    rows = json.loads((tmp_path / "o" / "report.json").read_text())["rows"]
    assert len(rows) == 3
    assert all(r["mse_later_mean"] < 0.1 for r in rows)


def test_run_point_without_repetitions_exits_3_after_writing(tiny_config_path, tmp_path,
                                                             monkeypatch, capsys):
    real = harness.simulate_conditional

    def failing(law, n, seed, **kwargs):
        if n == 1080:  # the K=6 point of TINY_CONFIG
            raise SamplingError("synthetic failure")
        return real(law, n, seed, **kwargs)

    monkeypatch.setattr(harness, "simulate_conditional", failing)
    outdir = tmp_path / "out"
    assert cli.main(["run", str(tiny_config_path), "-o", str(outdir)]) == 3
    captured = capsys.readouterr()
    assert "3 failed repetitions" in captured.out
    assert "(K=6, N=1080)" in captured.err
    doc = json.loads((outdir / "report.json").read_text())
    assert [r["reps"] for r in doc["rows"]] == [3, 0, 3]
    assert len(doc["failures"]) == 3


@pytest.mark.parametrize("workers", ["0", "-1", str(MAX_WORKERS + 1)])
def test_run_rejects_workers_below_one(workers, tiny_config_path, tmp_path, capsys):
    # also above the cap: argparse refuses the count, so no thread starts
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", str(tiny_config_path), "-o", str(tmp_path / "o"), "--workers", workers])
    assert exit_info.value.code == 2
    bound = "at least 1" if int(workers) < 1 else f"at most {MAX_WORKERS}"
    assert f"--workers: must be {bound}, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _with_N_list(doc: dict, K_list: list[int], N_list: list[int]) -> dict:
    """``doc`` sweeping the points of ``K_list`` and ``N_list`` instead of its ``N_rule``."""
    return dict({key: v for key, v in doc.items() if key != "N_rule"}, K_list=K_list,
                N_list=N_list, repetitions=2)


# distinct points on one abscissa: K for the growing sweep's slope, N for the paired slopes
@pytest.mark.parametrize("doc", [_with_N_list(TINY_CONFIG, [4, 4, 4], [200, 400, 800]),
                                 _with_N_list(TINY_PAIRED_CONFIG, [4, 6, 8], [480, 480, 480])],
                         ids=["growing", "paired"])
def test_run_with_one_distinct_sweep_value_reports_nan_slope(doc, tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "-o", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert [r["reps"] for r in report["rows"]] == [2, 2, 2]
    slopes = [report["slope"]] if "slope" in report else [*report["slope_later"],
                                                           *report["slope_now"]]
    assert np.isnan(slopes).all()


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
    assert set(doc) == {"K", "domain", "edges", "centers", "norm0", "norm1"}
    assert doc["K"] == 8
    assert len(doc["edges"]) == 9
    assert len(doc["centers"]) == 8
    assert doc["norm0"][0] == pytest.approx(np.sqrt(8))


# sha256 of the stdout of `reglater basis-dump <config> -K 8`: pins the edges,
# centers, normalizations and domain of the basis byte for byte.  The two
# digests agree because both configs fit the law of W at T = 10 at
# domain_epsilon 1e-4 (the paired sweep's first law is its payoff date's).
BASIS_DUMP_K8_SHA256 = {
    "figure1": "f9cb887d24143b20d718ac3bc67e3ee1fdc9d9a083a55de6b58440b8d95b27dd",
    "now_vs_later_fixed": "f9cb887d24143b20d718ac3bc67e3ee1fdc9d9a083a55de6b58440b8d95b27dd",
}


@pytest.mark.parametrize("name", sorted(BASIS_DUMP_K8_SHA256))
def test_basis_dump_golden_digest(name, capsys):
    assert cli.main(["basis-dump", str(CONFIG_DIR / f"{name}.json"), "-K", "8"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == BASIS_DUMP_K8_SHA256[name]


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


PLOT_HEADER = "K,N,reps,mse_mean,mse_stderr,approx_l2,h_tilde\n"


@pytest.mark.parametrize("rows,message", [
    ("0,100,1,0.1,0.01,0.09,0.5\n8,100,1,0.01,0.001,0.009,0.5\n", "K and N must be positive"),
    (f"{10**400},100,1,0.1,0.01,0.09,0.5\n8,100,1,0.01,0.001,0.009,0.5\n",
     "values too large to plot"),
    ("4,100,1,1e308,0.01,0.09,0.5\n8,100,1,0.01,0.001,0.009,0.5\n", "values too large to plot"),
    (f"{10**100},100,1,0.1,0.01,0.09,0.5\n1,100,1,0.01,0.001,0.009,0.5\n",
     "values too large to plot"),
], ids=["zero-K", "K-beyond-a-float", "guide-beyond-a-float", "x-falls-by-1e100"])
def test_plot_of_finite_values_it_cannot_draw_exits_2_naming_the_csv(rows, message,
                                                                      tmp_path, capsys):
    csv = tmp_path / "report.csv"
    csv.write_text(PLOT_HEADER + rows)
    svg = tmp_path / "x.svg"
    assert cli.main(["plot", str(csv), "-o", str(svg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: report CSV {csv}: {message}")
    assert err.count("\n") == 1
    assert not svg.exists()


def test_plot_verb_draws_a_paired_report(tmp_path, capsys):
    # both MSEs against N, with the slope -1 guide of Regress-Now's K/N floor
    path = tmp_path / "paired.json"
    path.write_text(json.dumps(TINY_PAIRED_CONFIG))
    outdir = tmp_path / "out"
    assert cli.main(["run", str(path), "-o", str(outdir), "--set", "repetitions=2"]) == 0
    svg = tmp_path / "paired.svg"
    assert cli.main(["plot", str(outdir / "report.csv"), "-o", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}polyline")) == 2
    labels = [el.text for el in root.findall(f".//{ns}text")]
    assert {"mse_later_mean", "mse_now_mean", "slope -1", "N (log scale)"} <= set(labels)


# ---------------------------------------------------------------------------
# output paths that cannot be written, and basis-dump's per-K checks
# ---------------------------------------------------------------------------

PLOT_CSV = ("K,N,reps,mse_mean,mse_stderr,approx_l2,h_tilde\n"
            "4,480,3,0.01,0.001,0.008,0.5\n8,1920,3,0.001,0.0001,0.0008,0.5\n")


@pytest.fixture()
def blocker(tmp_path):
    """A file where an output directory is wanted."""
    path = tmp_path / "blocker"
    path.write_text("")
    return path


def test_run_into_a_file_exits_2_before_sampling(tiny_config_path, blocker, capsys,
                                                monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the output directory was made")

    monkeypatch.setattr(harness, "simulate_conditional", no_sampling)
    assert cli.main(["run", str(tiny_config_path), "-o", str(blocker)]) == 2
    assert f"config error: output {blocker}: " in capsys.readouterr().err
    assert blocker.read_text() == ""


def test_run_with_a_directory_for_a_report_exits_2_before_sampling(tiny_config_path, tmp_path,
                                                                   capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the report targets were checked")

    monkeypatch.setattr(harness, "simulate_conditional", no_sampling)
    outdir = tmp_path / "o"
    (outdir / "report.json").mkdir(parents=True)
    assert cli.main(["run", str(tiny_config_path), "-o", str(outdir)]) == 2
    assert f"config error: output {outdir / 'report.json'}: " in capsys.readouterr().err
    assert sorted(p.name for p in outdir.iterdir()) == ["report.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask_022", "umask_077"])
def test_reports_get_the_mode_of_a_new_file(umask, tmp_path):
    old = os.umask(umask)
    try:
        cli.atomic_write(tmp_path / "report.csv", "K\n")
    finally:
        os.umask(old)
    assert (tmp_path / "report.csv").stat().st_mode & 0o777 == 0o666 & ~umask
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_basis_dump_under_a_file_exits_2_naming_the_path(tiny_config_path, blocker, capsys):
    target = blocker / "x.json"
    assert cli.main(["basis-dump", str(tiny_config_path), "-K", "4", "-o", str(target)]) == 2
    assert f"config error: output {target}: " in capsys.readouterr().err


def test_plot_under_a_file_exits_2_naming_the_path(tmp_path, blocker, capsys):
    csv = tmp_path / "report.csv"
    csv.write_text(PLOT_CSV)
    target = blocker / "p.svg"
    assert cli.main(["plot", str(csv), "-o", str(target)]) == 2
    assert f"config error: output {target}: " in capsys.readouterr().err


def test_basis_dump_refuses_a_K_the_gate_refuses(capsys):
    # at domain_epsilon 0.99999 the gate accepts the K = 4 partition and
    # refuses the K = 8 one; basis-dump -K 8 refuses it alike
    law = ["--set", "domain_epsilon=0.99999", "--set", "N_list=[100]"]
    assert cli.main(["validate-config", str(CONFIG_DIR / "figure2.json"), *law,
                     "--set", "K_list=[8]"]) == 2
    gate = capsys.readouterr().err
    assert "domain_epsilon: 0.99999 leaves no basis at K=8 (partition" in gate
    assert cli.main(["basis-dump", str(CONFIG_DIR / "figure2.json"), *law,
                     "--set", "K_list=[4]", "-K", "8"]) == 2
    assert capsys.readouterr() == ("", gate)


def test_a_K_above_the_bin_cap_exits_2_before_any_build(capsys, monkeypatch):
    fig2 = str(CONFIG_DIR / "figure2.json")
    dump = ["basis-dump", fig2, "--set", "K_list=[4]", "-K", str(MAX_BINS + 1)]
    assert cli.main(["validate-config", fig2, "--set", "K_list=[4]"]) == 0  # caches the K = 4 basis

    def no_build(*args):
        raise AssertionError("built a basis")

    monkeypatch.setattr(config_mod, "build_basis", no_build)
    capsys.readouterr()
    assert cli.main(["validate-config", fig2, "--set", f"K_list=[{MAX_BINS + 1}]",
                     "--set", f"N_list=[{4 * MAX_BINS}]"]) == 2
    gate = capsys.readouterr().err
    assert f"config error: K: {MAX_BINS + 1} bins exceed the cap of {MAX_BINS}" in gate
    assert cli.main(dump) == 2
    assert capsys.readouterr() == ("", gate)


def test_basis_dump_builds_a_fine_basis(capsys):
    # 1024 bins of the shipped law: each bin's moments are integrated about its own center
    assert cli.main(["basis-dump", str(CONFIG_DIR / "figure1.json"), "-K", "1024"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["K"] == 1024 and len(doc["centers"]) == 1024


@given(st.text())
def test_svg_escape_matches_saxutils(text):
    from xml.sax.saxutils import escape

    assert svgplot.escape(text) == escape(text)


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
    assert cli.main(["run", str(tiny_config_path), "-o", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


NO_SCIPY_CHILD = """
import sys
from pathlib import Path
import reglater
from reglater import cli
from reglater.config import load_config
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
for path in sorted(configs.glob("*.json")):
    load_config(path)
for name, sets in (("figure1", ["K_list=[4,6,8]", "repetitions=2"]),
                   ("now_vs_later_fixed", ["N_list=[100,200,400]", "repetitions=2"])):
    argv = ["run", str(configs / f"{name}.json"), "-o", str(out / name)]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 0, name
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_import_config_and_runs_load_no_scipy(tmp_path):
    # the normal CDF and quantile are ported; only the Gauss-Hermite oracle
    # and the tests need scipy, so a fresh import, every shipped config and a
    # sweep of each kind must not pay for it
    import os
    import subprocess
    import sys

    import reglater

    src = str(Path(reglater.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD, str(CONFIG_DIR), str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "now_vs_later_fixed" / "report.csv").is_file()


OPENSSL_CHILD = """
import sys
from pathlib import Path
import reglater.cli
config, out = sys.argv[1], Path(sys.argv[2])
assert reglater.cli.main(["validate-config", config]) == 0
assert reglater.cli.main(["basis-dump", config, "-K", "8", "-o", str(out / "basis.json")]) == 0
print(sorted(m for m in ("_hashlib", "hashlib", "hmac") if m in sys.modules))
"""


def test_validate_and_basis_dump_load_no_openssl(tmp_path):
    # hashlib loads OpenSSL; only drawing samples (rng.philox_key) needs it
    import subprocess
    import sys

    import reglater

    src = str(Path(reglater.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", OPENSSL_CHILD, str(CONFIG_DIR / "figure1.json"),
                          str(tmp_path)], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "basis.json").is_file()
