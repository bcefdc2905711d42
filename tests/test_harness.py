import functools
import platform
import resource
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import reglater as rl
from reglater import _kernels, config, harness
from reglater.config import load_config
from reglater.errors import ConfigurationError
from reference import fit_sample


def small_growing_config(seed=301, reps=5, payoff="tanh"):
    return rl.ExperimentConfig(
        name="t-growing", payoff=rl.PayoffSpec(payoff), feature=rl.FeatureSpec("terminal", 10.0),
        sweep="growing_K", K_list=(4, 6, 8), repetitions=reps, seed=seed,
        N_rule=(100.0, 2.01))


def small_fixed_config(seed=302, reps=5, payoff="tanh"):
    return rl.ExperimentConfig(
        name="t-fixed", payoff=rl.PayoffSpec(payoff), feature=rl.FeatureSpec("terminal", 10.0),
        sweep="fixed_K", K_list=(5,), repetitions=reps, seed=seed,
        N_list=(1000, 4000, 16000))


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

def test_slope_exact_power_law():
    ks = np.array([4.0, 8.0, 16.0, 32.0])
    fit = rl.fit_loglog_slope(ks, ks**-4)
    assert fit.slope == pytest.approx(-4.0, abs=1e-9)
    assert fit.ci_low <= -4.0 <= fit.ci_high


def test_slope_constant_rows():
    fit = rl.fit_loglog_slope([10, 100, 1000], [0.5, 0.5, 0.5])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_slope_with_bounded_noise():
    gen = np.random.default_rng(0)
    ks = np.geomspace(4, 64, 10)
    ys = ks**-4 * (1.0 + gen.uniform(-0.05, 0.05, ks.size))
    fit = rl.fit_loglog_slope(ks, ys)
    assert -4.3 <= fit.slope <= -3.7


def test_slope_excludes_nonpositive_and_errors_when_starved():
    with pytest.warns(RuntimeWarning):
        fit = rl.fit_loglog_slope([1, 2, 4, 8], [1.0, 0.0, 0.25, 0.0625])
    assert np.isfinite(fit.slope)
    with pytest.raises(ConfigurationError):
        with pytest.warns(RuntimeWarning):
            rl.fit_loglog_slope([1, 2, 4], [1.0, -1.0, 0.3])
    with pytest.raises(ConfigurationError, match="2 distinct x values"):
        rl.fit_loglog_slope([1000, 1000, 1000], [0.3, 0.2, 0.25])


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_undersized_n():
    with pytest.raises(ConfigurationError):
        rl.ExperimentConfig(
            name="bad", payoff=rl.PayoffSpec("tanh"), feature=rl.FeatureSpec("terminal", 10.0),
            sweep="fixed_K", K_list=(8,), repetitions=1, seed=1, N_list=(10,))


def test_config_rejects_mismatched_lists():
    with pytest.raises(ConfigurationError):
        rl.ExperimentConfig(
            name="bad", payoff=rl.PayoffSpec("tanh"), feature=rl.FeatureSpec("terminal", 10.0),
            sweep="growing_K", K_list=(4, 8), repetitions=1, seed=1, N_list=(100,))


@pytest.mark.parametrize("feature", [rl.FeatureSpec("terminal", 10.0),
                                     rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=1.0)],
                         ids=["terminal", "pair_u_T"])
def test_config_builds_every_basis_of_the_sweep(feature):
    # N = 4 K^2 keeps rejection within MAX_POINT_PROPOSALS at these masses
    def config(K_list, epsilon):
        return rl.ExperimentConfig(
            name="t", payoff=rl.PayoffSpec("square"),
            feature=feature, sweep="growing_K", K_list=K_list, repetitions=1, seed=1,
            N_rule=(4.0, 2.0), domain_epsilon=epsilon)

    config((4, 8), 0.999)  # narrow bins: each is integrated about its own center
    # at domain_epsilon = 0.99999 the K = 8 partition misses 1/K by 5.55e-12
    with pytest.raises(ConfigurationError,
                       match=r"^domain_epsilon: 0\.99999 leaves no basis at K=8 \(partition "
                             r"masses deviate from 1/K by 5\.55e-12"):
        config((8,), 0.99999)


def test_call_struck_at_the_domain_end_is_refused():
    # the call pays 0 on the whole fit domain [-a, a] from a strike of a on
    law = rl.truncated_feature_law(rl.FeatureSpec("terminal", 10.0), 1e-4)

    def config(strike):
        return rl.ExperimentConfig(
            name="t", payoff=rl.PayoffSpec("call", strike),
            feature=rl.FeatureSpec("terminal", 10.0), sweep="growing_K", K_list=(4,),
            repetitions=1, seed=1, N_rule=(100.0, 0.0))

    config(np.nextafter(law.upper, 0.0))
    with pytest.raises(ConfigurationError, match=r"^payoff\.strike: .* at or above"):
        config(law.upper)


def test_points_follow_the_rule():
    cfg = small_growing_config()
    assert cfg.points() == [(4, 1623), (6, 3666), (8, 6535)]


# ---------------------------------------------------------------------------
# growing-K runs
# ---------------------------------------------------------------------------

def test_growing_k_report_structure_and_floor():
    rep = rl.run_growing_K(small_growing_config())
    assert [r.K for r in rep.rows] == [4, 6, 8]
    assert rep.sweep_variable == "K"
    for row in rep.rows:
        assert row.reps == 5
        assert row.mse_mean >= max(0.0, row.approx_l2 - 3.0 * row.mse_stderr)
        assert row.h_tilde * row.N / row.K**2 <= 10.0
    assert rep.slope < -3.0
    csv = rep.to_csv_text()
    assert csv.splitlines()[0] == "K,N,reps,mse_mean,mse_stderr,approx_l2,h_tilde"


def test_growing_k_worker_count_invariance():
    cfg = small_growing_config(seed=303)
    a = rl.run_growing_K(cfg, workers=1).to_csv_text()
    b = rl.run_growing_K(cfg, workers=8).to_csv_text()
    assert a == b


def test_reports_reproducible_and_seed_sensitive():
    a = rl.run_growing_K(small_growing_config(seed=304))
    b = rl.run_growing_K(small_growing_config(seed=304))
    c = rl.run_growing_K(small_growing_config(seed=305))
    assert a.to_csv_text() == b.to_csv_text()
    assert a.to_csv_text() != c.to_csv_text()
    # the deterministic columns agree across seeds
    for ra, rc in zip(a.rows, c.rows):
        assert ra.approx_l2 == rc.approx_l2
        assert ra.h_tilde == rc.h_tilde
        assert ra.mse_mean != rc.mse_mean


def test_in_span_payoff_mse_is_negligible():
    rep = rl.run_growing_K(small_growing_config(seed=306, reps=3, payoff="identity"))
    for row in rep.rows:
        assert row.mse_mean < 1e-10


def test_point_failures_are_flagged(monkeypatch):
    cfg = small_growing_config(seed=308, reps=2)
    real = harness.simulate_conditional

    def failing(law, n, seed, **kwargs):
        if n == 3666:  # the K=6 point
            raise rl.SamplingError("synthetic failure")
        return real(law, n, seed, **kwargs)

    monkeypatch.setattr(harness, "simulate_conditional", failing)
    rep = rl.run_growing_K(cfg)
    flagged = [r for r in rep.rows if r.flagged]
    assert len(flagged) == 1 and flagged[0].K == 6
    assert flagged[0].reps == 0
    assert len(rep.failures) == 2
    assert np.isnan(flagged[0].mse_mean)
    assert np.isfinite(rep.rows[0].mse_mean)


def _fit_alone(cfg, K, N, rep):
    """One repetition of a Regress-Later sweep point, sampled, paid off and
    fitted on its own (no batch): its basis, fitted and projection
    coefficients and approximation floor."""
    dist = rl.truncated_feature_law(cfg.feature, cfg.domain_epsilon)
    basis = rl.build_basis(dist, K)
    alpha = rl.projection_coefficients(cfg.payoff, basis, dist)
    approx = rl.approx_error_moments(cfg.payoff, basis, dist, coefficients=alpha).mean_square
    sample = rl.simulate_conditional(dist, N, rl.rng.derive_seed(cfg.seed, K, N, rep))
    target = functools.partial(rl.eval_payoff, cfg.payoff)
    return basis, fit_sample(rl.regress_later_fit, sample, basis, target=target), alpha, approx


def _rep_alone(cfg, K, N, rep):
    """The sweep's value for one repetition fitted on its own (``_fit_alone``)."""
    _, coef, alpha, approx = _fit_alone(cfg, K, N, rep)
    return approx + rl.coefficient_error(coef, alpha)


def test_fresh_sample_eval_agrees_with_quadrature():
    # the sweep's exact MSE, approx_l2 + |alpha_hat - alpha|^2 (the basis is
    # orthonormal), against the mean squared error on 10 N fresh samples
    cfg = small_growing_config(seed=307)
    law = rl.truncated_feature_law(cfg.feature, cfg.domain_epsilon)
    for K, N in cfg.points():
        basis, coef, alpha, approx = _fit_alone(cfg, K, N, 0)
        fresh = rl.simulate_conditional(law, 10 * N, rl.rng.derive_seed(cfg.seed, K, N, 0, "eval"))
        v = fresh.features
        err = rl.eval_payoff(cfg.payoff, v) - rl.predict(basis, coef, v)
        assert np.mean(err * err) == pytest.approx(approx + rl.coefficient_error(coef, alpha),
                                                   rel=0.2)


def test_failures_in_a_batch_stay_per_repetition(monkeypatch):
    # K=4, N=1623: all five repetitions share one batch (one kernel call);
    # rep 1 fails to sample, and rep 3 fails in its value
    cfg = small_growing_config(seed=316, reps=5)
    K, N = cfg.points()[0]
    assert len(harness._batches(N, cfg.repetitions)) == 1
    seeds = {rl.rng.derive_seed(cfg.seed, K, N, rep): rep for rep in range(cfg.repetitions)}
    real_sample, real_error = harness.simulate_conditional, harness.coefficient_error
    rep3 = _fit_alone(cfg, K, N, 3)[1]  # the batch fits rep 3 to these bits

    def failing_sample(law, n, seed, **kwargs):
        if n == N and seeds.get(seed) == 1:
            raise rl.SamplingError("synthetic failure")
        return real_sample(law, n, seed, **kwargs)

    def failing_error(coef, alpha):
        if np.array_equal(coef, rep3):
            raise FloatingPointError("synthetic value failure")
        return real_error(coef, alpha)

    monkeypatch.setattr(harness, "simulate_conditional", failing_sample)
    monkeypatch.setattr(harness, "coefficient_error", failing_error)
    report = rl.run_growing_K(cfg)
    assert report.failures == [
        f"point (K={K}, N={N}) rep 1: synthetic failure",
        f"point (K={K}, N={N}) rep 3: synthetic value failure"]
    row = report.rows[0]
    assert row.reps == 3 and not row.flagged
    want = harness._mean_stderr([_rep_alone(cfg, K, N, rep) for rep in (0, 2, 4)])
    assert (row.mse_mean, row.mse_stderr) == want
    assert [r.reps for r in report.rows[1:]] == [5, 5]


def test_batches_that_do_not_divide_the_repetitions_are_worker_invariant():
    # batches of 7, 3 and 1 repetitions: [0-6] [7]; [0-2] [3-5] [6-7]; one each
    cfg = rl.ExperimentConfig(
        name="t-batches", payoff=rl.PayoffSpec("tanh"), feature=rl.FeatureSpec("terminal", 10.0),
        sweep="fixed_K", K_list=(5,), repetitions=8, seed=317, N_list=(9000, 20000, 40000))
    assert [len(harness._batches(N, 8)) for _, N in cfg.points()] == [2, 3, 8]
    csv = {w: rl.run_fixed_K(cfg, workers=w).to_csv_text() for w in (1, 2, 8)}
    assert csv[1] == csv[2] == csv[8]
    row = rl.run_fixed_K(cfg).rows[0]
    assert (row.mse_mean, row.mse_stderr) == harness._mean_stderr(
        [_rep_alone(cfg, 5, 9000, rep) for rep in range(8)])


def test_one_kernel_call_per_batch(monkeypatch):
    cfg = small_growing_config(seed=318, reps=23)
    sizes = []
    kernel = rl._kernels.binned_qr

    def counting(edges, centers, norm1, u, x, sizes_=None):
        sizes.append((len(u), None if sizes_ is None else len(sizes_)))
        return kernel(edges, centers, norm1, u, x, sizes_)

    monkeypatch.setattr(rl._kernels, "binned_qr", counting)
    rl.run_growing_K(cfg)
    per_batch = [max(1, rl.rng.BLOCK_SIZE // N) for _, N in cfg.points()]
    assert per_batch == [40, 17, 10]
    assert len(sizes) == sum(-(-23 // b) for b in per_batch) == 6
    want = [(N * len(batch), len(batch)) for _, N in cfg.points()
            for batch in harness._batches(N, 23)]
    assert sizes == want


# ---------------------------------------------------------------------------
# fixed-K runs
# ---------------------------------------------------------------------------

def test_fixed_k_plateau_and_stderr_shrinks():
    rep = rl.run_fixed_K(small_fixed_config(seed=309, reps=20))
    assert rep.sweep_variable == "N"
    stderrs = [r.mse_stderr for r in rep.rows]
    assert stderrs[-1] < stderrs[0]
    assert rep.plateau_statistic is not None
    assert rep.plateau_statistic >= 1.0


def test_fixed_k_in_span_payoff_no_plateau_above_zero():
    rep = rl.run_fixed_K(small_fixed_config(seed=310, reps=3, payoff="identity"))
    for row in rep.rows:
        assert row.mse_mean < 1e-9


# ---------------------------------------------------------------------------
# paired comparison
# ---------------------------------------------------------------------------

def paired_config(sweep, seed=311, reps=3):
    kwargs = dict(
        name="t-paired", payoff=rl.PayoffSpec("square"),
        feature=rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=1.0),
        repetitions=reps, seed=seed)
    if sweep == "growing_K":
        return rl.ExperimentConfig(sweep="growing_K", K_list=(4, 6, 8),
                                   N_rule=(100.0, 2.01), **kwargs)
    return rl.ExperimentConfig(sweep="fixed_K", K_list=(8,),
                               N_list=(1000, 10000, 100000), **kwargs)


def test_paired_growing_later_steeper():
    rep = rl.now_vs_later_compare(paired_config("growing_K"), workers=4)
    assert rep.slope_later.slope < rep.slope_now.slope
    assert rep.rate_gap > 0
    doc = rep.to_json_dict()
    assert len(doc["rows"]) == 3


def test_paired_fixed_now_slope_near_minus_one():
    rep = rl.now_vs_later_compare(paired_config("fixed_K", seed=312, reps=10))
    assert -1.3 <= rep.slope_now.slope <= -0.7


def test_paired_determinism():
    a = rl.now_vs_later_compare(paired_config("growing_K", seed=313, reps=2), workers=1)
    b = rl.now_vs_later_compare(paired_config("growing_K", seed=313, reps=2), workers=8)
    assert a.to_json_dict()["rows"] == b.to_json_dict()["rows"]


def test_paired_failures_are_recorded_not_raised(monkeypatch):
    cfg = paired_config("fixed_K", seed=314, reps=2)
    real = harness.regress_now_fit

    def failing(blocks, basis, fits):
        blocks = list(blocks)
        if sum(b.n for b in blocks) == 10000 * fits:  # the middle point
            raise FloatingPointError("synthetic failure")
        return real(iter(blocks), basis, fits=fits)

    monkeypatch.setattr(harness, "regress_now_fit", failing)
    rep = rl.now_vs_later_compare(cfg, workers=2)
    assert [r.reps for r in rep.rows] == [2, 0, 2]
    failed = rep.rows[1]
    assert np.isnan(failed.mse_later_mean) and np.isnan(failed.mse_now_mean)
    assert rep.failures == [f"point (K=8, N=10000) rep {r}: synthetic failure" for r in (0, 1)]
    for row in (rep.rows[0], rep.rows[2]):
        assert np.isfinite([row.mse_later_mean, row.mse_later_stderr,
                            row.mse_now_mean, row.mse_now_stderr]).all()
    assert rep.to_json_dict()["failures"] == rep.failures


def test_paired_later_failures_are_recorded_not_raised(monkeypatch):
    cfg = paired_config("fixed_K", seed=315, reps=3)
    clean = rl.now_vs_later_compare(cfg, workers=1)
    real = harness.regress_later_fit

    def failing(blocks, basis, fits, target):
        blocks = list(blocks)
        n = sum(b.n for b in blocks) // fits
        if n == 1000:  # the whole call fails: every repetition of the first point
            raise FloatingPointError("synthetic later failure")
        out = list(real(iter(blocks), basis, fits, target))
        if n == 10000:  # one fit of the middle point's batch (all three repetitions)
            assert fits == 3
            out[1] = FloatingPointError("synthetic later failure")
        return out

    monkeypatch.setattr(harness, "regress_later_fit", failing)
    rep = rl.now_vs_later_compare(cfg, workers=2)
    assert [r.reps for r in rep.rows] == [0, 2, 3]
    assert np.isnan([rep.rows[0].mse_later_mean, rep.rows[0].mse_now_mean]).all()
    assert np.isfinite([rep.rows[1].mse_later_mean, rep.rows[1].mse_now_mean]).all()
    assert rep.failures == (
        [f"point (K=8, N=1000) rep {r}: synthetic later failure" for r in (0, 1, 2)]
        + ["point (K=8, N=10000) rep 1: synthetic later failure"])
    assert rep.rows[2] == clean.rows[2]


def test_paired_requires_supported_payoff():
    with pytest.raises(ConfigurationError):
        rl.ExperimentConfig(
            name="bad", payoff=rl.PayoffSpec("tanh"),
            feature=rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=1.0),
            sweep="growing_K", K_list=(4,), repetitions=1, seed=1, N_rule=(100.0, 2.01))


@pytest.mark.parametrize("sweep", ["growing_K", "fixed_K"])
def test_univariate_sweeps_refuse_a_paired_config(sweep, monkeypatch):
    def no_sampling(*args, **kwargs):
        pytest.fail("sampled before refusing the config")

    monkeypatch.setattr(harness, "simulate_conditional", no_sampling)
    run = rl.run_growing_K if sweep == "growing_K" else rl.run_fixed_K
    with pytest.raises(ConfigurationError,
                       match=r"^feature\.kind: .*'pair_u_T'.*now_vs_later_compare"):
        run(paired_config(sweep, reps=1))


@pytest.mark.parametrize("name", ["figure1", "now_vs_later_fixed"])
def test_each_basis_is_built_once_per_law_and_k(name, monkeypatch):
    # the config gate's basis cache calls the builder, so it is counted there
    config._basis.cache_clear()
    built = []
    real = config.build_basis

    def counting(dist, K):
        built.append((dist, K))
        return real(dist, K)

    monkeypatch.setattr(config, "build_basis", counting)
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json",
                      ["repetitions=1"])
    run = rl.now_vs_later_compare if cfg.feature.kind == "pair_u_T" else rl.run_growing_K
    run(cfg)
    expected = [(dist, K) for dist in config._sweep_laws(cfg) for K in cfg.K_list]
    assert sorted(built, key=repr) == sorted(expected, key=repr)


@pytest.mark.parametrize("workers", [2, 8])
def test_threaded_sweep_keeps_a_bounded_window_of_tasks(workers):
    # one repetition per batch: while the head task waits, only the tasks of
    # its window may start; with every task submitted up front all would
    window = harness._TASKS_PER_WORKER * workers
    points = [(K, rl.rng.BLOCK_SIZE) for K in (1, 2, 3)]
    reps = 4 * window
    lock = threading.Lock()
    others = threading.Condition(lock)
    state = {"started": 0, "head_done": False, "ahead": 0}

    def run_batch(K, N, batch):
        if K == 1 and batch[0] == 0:
            with others:  # head: wait until its window is full, then a little more
                others.wait_for(lambda: state["started"] >= window - 1, timeout=5.0)
                others.wait(timeout=0.05)
                state["ahead"] = state["started"]
                state["head_done"] = True
        else:
            with others:
                if not state["head_done"]:
                    state["started"] += 1
                    others.notify_all()
        return [float(rep) for rep in batch]

    values, failures = harness._sweep(points, reps, run_batch, workers)
    assert failures == []
    assert values == [[float(rep) for rep in range(reps)]] * 3
    assert state["ahead"] == window - 1


# ---------------------------------------------------------------------------
# streamed repetitions: one rng block at a time
# ---------------------------------------------------------------------------

def test_sample_blocks_concatenate_to_the_one_shot_draws():
    law = rl.truncated_feature_law(rl.FeatureSpec("terminal", 1.0), 1e-4)
    n = 2 * rl.rng.BLOCK_SIZE + 17
    blocks = list(harness._sample_blocks(law, n, 41))
    assert [b.n for b in blocks] == [rl.rng.BLOCK_SIZE, rl.rng.BLOCK_SIZE, 17]
    one_shot = rl.simulate_conditional(law, n, 41)
    w = one_shot.features
    assert np.array_equal(np.concatenate([b.features for b in blocks]), w)
    assert sum(b.meta["proposals"] for b in blocks) == one_shot.meta["proposals"]
    # Regress-Now: states block j pairs with block j of the continuation normals
    square = rl.PayoffSpec("square")
    cont = harness._continued_blocks(square, 3.0, 42, iter(blocks))
    x = rl.eval_payoff(square, w + 3.0 * rl.rng.block_standard_normal(n, 42))
    assert np.array_equal(np.concatenate([b.payoffs for b in cont]), x)


def _memory_config(paired: bool, n: int) -> rl.ExperimentConfig:
    if paired:
        return rl.ExperimentConfig(
            name="t-memory", payoff=rl.PayoffSpec("square"),
            feature=rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=1.0),
            sweep="fixed_K", K_list=(8,), repetitions=1, seed=315, N_list=(n, n + 1, n + 2))
    return rl.ExperimentConfig(
        name="t-memory", payoff=rl.PayoffSpec("tanh"), feature=rl.FeatureSpec("terminal", 10.0),
        sweep="fixed_K", K_list=(5,), repetitions=1, seed=315, N_list=(n,))


@pytest.mark.parametrize("paired", [False, True])
def test_streamed_repetition_memory_is_flat_in_n(paired):
    # one repetition at a time (workers=1): its samples stream through the fit
    # block by block, so the traced peak does not grow with N
    peaks = {}
    for n in (2**17, 2**20):
        cfg = _memory_config(paired, n)
        tracemalloc.start()
        try:
            if paired:
                rl.now_vs_later_compare(cfg)
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # one-point slope
                    rl.run_fixed_K(cfg)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2**20] <= 1.1 * peaks[2**17]
    # measured 2.02 MiB fixed-K and 2.56 MiB paired at 2**20 (x86-64, numpy
    # 2.4), so the bound leaves at least 0.4 MiB of margin
    assert peaks[2**20] < 3 * 2**20


def _buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("paired", [False, True])
def test_streamed_blocks_are_freed_before_the_next_is_drawn(paired, monkeypatch):
    # weak references to the memory of every block's features, payoffs and
    # continuation states, tagged with the block's index in its fit: when
    # block j >= 1 of a fit is drawn or factored, nothing of blocks 0..j-1 of
    # that fit is alive
    held: list[tuple[int, weakref.ref]] = []
    block = {"drawn": -1, "factored": -1}
    draw, pay, factor = harness.simulate_conditional, harness.eval_payoff, _kernels.binned_qr

    def alive_before(j: int) -> list[int]:
        return [i for i, ref in held if i < j and ref() is not None]

    def drawing(law, n, seed, *, first_block=0):
        if first_block == 0:  # a new fit
            held.clear()
            block["factored"] = -1
        assert alive_before(first_block) == []
        block["drawn"] = first_block
        out = draw(law, n, seed, first_block=first_block)
        held.append((first_block, weakref.ref(_buffer(out.features))))
        return out

    def paying(spec, feature, out=None):
        out = pay(spec, feature, out=out)
        held.extend((block["drawn"], weakref.ref(_buffer(a))) for a in (feature, out))
        return out

    def factoring(*args):
        block["factored"] += 1
        assert alive_before(block["factored"]) == []
        return factor(*args)

    monkeypatch.setattr(harness, "simulate_conditional", drawing)
    monkeypatch.setattr(harness, "eval_payoff", paying)
    monkeypatch.setattr(_kernels, "binned_qr", factoring)
    cfg = _memory_config(paired, 2 * rl.rng.BLOCK_SIZE + 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # one-point slope
        report = rl.now_vs_later_compare(cfg) if paired else rl.run_fixed_K(cfg)
    assert not report.failures
    assert block == {"drawn": 2, "factored": 2}


def _traced_peak(fn) -> int:
    """The ``tracemalloc`` peak of ``fn()`` after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [2**17, 2**20])
@pytest.mark.parametrize("paired", [False, True])
def test_streamed_repetition_peaks_below_five_and_a_half_block_lengths(paired, n):
    # one block's features, and the kernel's three block-lengths beside them;
    # a Regress-Now block also carries its payoffs, while Regress-Later's
    # kernel writes its targets into its own rows, so fixed-K keeps within
    # 4.5.  No earlier block, and no continuation normals, are held.
    # Measured 4.02 and 5.09 block-lengths at 2**17 (x86-64, numpy 2.4).
    bound = 5.5 if paired else 4.5
    cfg = _memory_config(paired, n)

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # one-point slope
            return rl.now_vs_later_compare(cfg) if paired else rl.run_fixed_K(cfg)

    assert _traced_peak(run) <= bound * 8 * rl.rng.BLOCK_SIZE


def test_one_sample_block_peaks_below_two_and_a_half_block_lengths():
    # a block holds its normals, its kept samples and masks: the sampler keeps
    # a round's hits by mask and scales its normals in place, and a
    # continuation is formed in place in its normals (3.0 block-lengths with
    # an index array, a gathered copy and a scaled copy)
    bound = 2.5 * 8 * rl.rng.BLOCK_SIZE
    law = rl.truncated_feature_law(rl.FeatureSpec("terminal", 10.0), 1e-4)
    assert _traced_peak(lambda: rl.simulate_conditional(law, rl.rng.BLOCK_SIZE, 7)) <= bound
    states = rl.simulate_conditional(law, rl.rng.BLOCK_SIZE, 8)
    square = rl.PayoffSpec("square")
    assert _traced_peak(
        lambda: next(harness._continued_blocks(square, 3.0, 9, iter([states])))) <= bound


@pytest.mark.parametrize("fits", [1, 2, 40])
@pytest.mark.parametrize("K", [4, 5, 8, 16])
def test_one_kernel_call_peaks_below_three_and_a_quarter_block_lengths(basis_cache, K, fits):
    # binned_qr holds the sort order and the two sorted rows while it
    # gathers, then the rows and one block-length temporary (a spread of
    # per-bin scalars, or a product row) at a time
    n = rl.rng.BLOCK_SIZE // fits * fits
    law = rl.truncated_feature_law(rl.FeatureSpec("terminal", 10.0), 1e-4)
    u = rl.simulate_conditional(law, n, 7).features
    x, sizes = np.tanh(u), np.full(fits, n // fits)
    basis = basis_cache(K)
    assert _traced_peak(lambda: _kernels.binned_qr(
        basis.edges, basis.centers, basis.norm1, u, x, sizes)) <= 3.25 * 8 * rl.rng.BLOCK_SIZE


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator thresholds are glibc's")
def test_streamed_repetitions_reuse_block_memory():
    # once one repetition has run, later blocks reuse the freed heap instead
    # of page-faulting fresh memory in (about 2e4 faults per 2**20 samples)
    cfg = _memory_config(False, 2**20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # one-point slope
        rl.run_fixed_K(cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        rl.run_fixed_K(cfg)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


def test_streamed_block_checks_its_features_once(monkeypatch):
    # the block simulate_conditional built is validated there; attaching a
    # Regress-Now block's payoffs checks the payoffs only
    built = []
    post_init = rl.SampleSet.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    monkeypatch.setattr(rl.SampleSet, "__post_init__", counting)
    law = rl.truncated_feature_law(rl.FeatureSpec("terminal", 1.0), 1e-4)
    n = 2 * rl.rng.BLOCK_SIZE + 5
    blocks = list(harness._continued_blocks(rl.PayoffSpec("square"), 3.0, 44,
                                            harness._sample_blocks(law, n, 43)))
    assert built == [rl.rng.BLOCK_SIZE, rl.rng.BLOCK_SIZE, 5]
    for b in blocks:
        assert np.all(np.isfinite(b.payoffs))
        assert not b.payoffs.flags.writeable
