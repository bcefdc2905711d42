"""The config gate's contract as a property over the config vocabulary.

``ExperimentConfig`` makes every check a sweep makes before sampling, so a
config that ``validate-config`` accepts must run to exit 0 (or 3, a
recorded numerical failure) without a traceback, and an exit-0 report must
carry finite values; a config it refuses must exit 2 naming a field.
Refusals are checked through ``validate-config`` alone: ``run`` refuses
alike (``test_cli.test_validate_config_and_run_refuse_alike``), and a
refused config may be slow or huge to sample.  Sizes are tiny, and N
exceeds 2K + 1 by at most ``2e5 (1 - domain_epsilon)``, so no accepted
config draws more than about 1e6 rejection proposals per repetition; the
proposals a run draws are counted per repetition seed and checked against
the gate's cap.
"""
import contextlib
import io
import json
import math
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from reglater import cli, config, harness

# every field a refusal may name: the text before its first ": "
FIELDS = {"schema_version", "sweep", "K_list", "N_rule", "N_list", "repetitions", "seed",
          "domain_epsilon", "feature.kind", "feature.eval_time", "feature.intermediate_time",
          "payoff.kind", "payoff.strike"}

# 1 - 1e-7 is below the sampler's mass floor, and 0 and 1 lie outside (0, 1)
EPSILONS = (1e-4, 1e-12, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1 - 1e-7, 0.0, 1.0)
TIMES = (1e-3, 1.0, 10.0, 1e3)


@st.composite
def config_docs(draw) -> dict:
    eps = draw(st.sampled_from(EPSILONS))
    n_max = max(3, min(60, int(2e5 * (1.0 - eps))))
    T = draw(st.sampled_from(TIMES))
    if draw(st.booleans()):
        feature = {"kind": "pair_u_T", "eval_time": T,
                   "intermediate_time": T * draw(st.sampled_from((0.1, 0.5, 0.9)))}
    else:
        feature = {"kind": "terminal", "eval_time": T}
    payoff = {"kind": draw(st.sampled_from(("tanh", "square", "identity", "call")))}
    if payoff["kind"] == "call":
        payoff["strike"] = draw(st.sampled_from((-5.0, 0.0, 2.0, 1e3)))
    doc = {"schema_version": 2, "name": "property", "feature": feature, "payoff": payoff,
           "repetitions": draw(st.integers(1, 2)), "seed": draw(st.integers(0, 1000)),
           "domain_epsilon": eps}
    # N from 2K - 1 (too few samples) to 2K + 1 + n_max
    N_of = lambda K: 2 * K + 1 + draw(st.integers(-2, n_max))
    if draw(st.booleans()):
        K = draw(st.integers(1, 4))
        doc.update(sweep="fixed_K", K_list=[K],
                   N_list=[N_of(K) for _ in range(draw(st.integers(1, 3)))])
    else:
        K_list = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
        doc.update(sweep="growing_K", K_list=K_list)
        if draw(st.booleans()):
            doc["N_rule"] = {"c": N_of(1), "b": draw(st.sampled_from((0.0, 1.0)))}
        else:
            doc["N_list"] = [N_of(K) for K in K_list]
    return doc


def _main(args: list[str]) -> tuple[int, str]:
    """``cli.main(args)`` and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, err.getvalue()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(doc=config_docs())
def test_gate_accepts_only_what_runs_and_names_what_it_refuses(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        code, err = _main(["validate-config", str(path)])
        if code == 2:
            assert err.startswith("config error: "), err
            assert err[len("config error: "):].split(": ")[0] in FIELDS, err
            return
        assert code == 0, err
        outdir = Path(tmp) / "out"
        proposals = Counter()  # rejection proposals per repetition seed
        sample = harness.simulate_conditional

        def counted(law, n, seed, **kwargs):
            out = sample(law, n, seed, **kwargs)
            proposals[seed] += out.meta["proposals"]
            return out

        # patched here, not by a fixture: hypothesis refuses function-scoped ones
        with mock.patch.object(harness, "simulate_conditional", counted):
            code, err = _main(["run", str(path), "-o", str(outdir)])
        assert code in (0, 3), err
        assert proposals and max(proposals.values()) <= config.MAX_POINT_PROPOSALS, proposals
        if code == 3:
            return
        report = json.loads((outdir / "report.json").read_text())
        for row in report["rows"]:
            values = {k: v for k, v in row.items() if k.startswith("mse_") or k == "approx_l2"}
            assert all(math.isfinite(v) for v in values.values()), row
            if "h_tilde" in row:  # Jensen: E[(e^T e)^2] >= (E[e^T e])^2 = (2K)^2
                assert row["h_tilde"] >= 4 * row["K"] ** 2 / row["N"], row
