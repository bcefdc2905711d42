import platform
import resource
import tracemalloc
import warnings

import numpy as np
import pytest

import reglater as rl
from reglater import harness
from reglater.errors import ConfigurationError


def small_growing_config(seed=301, reps=5, payoff="tanh"):
    return rl.ExperimentConfig(
        name="t-growing", process=rl.ProcessSpec("brownian", 10.0),
        payoff=rl.PayoffSpec(payoff), feature=rl.FeatureSpec("terminal", 10.0),
        sweep="growing_K", K_list=(4, 6, 8), repetitions=reps, seed=seed,
        N_rule=(100.0, 2.01))


def small_fixed_config(seed=302, reps=5, payoff="tanh"):
    return rl.ExperimentConfig(
        name="t-fixed", process=rl.ProcessSpec("brownian", 10.0),
        payoff=rl.PayoffSpec(payoff), feature=rl.FeatureSpec("terminal", 10.0),
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


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_undersized_n():
    with pytest.raises(ConfigurationError):
        rl.ExperimentConfig(
            name="bad", process=rl.ProcessSpec("brownian", 10.0),
            payoff=rl.PayoffSpec("tanh"), feature=rl.FeatureSpec("terminal", 10.0),
            sweep="fixed_K", K_list=(8,), repetitions=1, seed=1, N_list=(10,))


def test_config_rejects_mismatched_lists():
    with pytest.raises(ConfigurationError):
        rl.ExperimentConfig(
            name="bad", process=rl.ProcessSpec("brownian", 10.0),
            payoff=rl.PayoffSpec("tanh"), feature=rl.FeatureSpec("terminal", 10.0),
            sweep="growing_K", K_list=(4, 8), repetitions=1, seed=1, N_list=(100,))


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


def test_fresh_sample_eval_agrees_with_quadrature():
    base = small_growing_config(seed=307, reps=3)
    quad = rl.run_growing_K(base)
    fresh_cfg = rl.ExperimentConfig(
        name=base.name, process=base.process, payoff=base.payoff, feature=base.feature,
        sweep=base.sweep, K_list=base.K_list, repetitions=3, seed=307,
        N_rule=base.N_rule, eval_method="fresh_sample", eval_multiplier=10)
    fresh = rl.run_growing_K(fresh_cfg)
    for rq, rf in zip(quad.rows, fresh.rows):
        assert rf.mse_mean == pytest.approx(rq.mse_mean, rel=0.2)


def test_point_failures_are_flagged(monkeypatch):
    cfg = small_growing_config(seed=308, reps=2)
    real = harness.simulate_conditional

    def failing(proc, feat, dom, n, seed, **kwargs):
        if n == 3666:  # the K=6 point
            raise rl.SamplingError("synthetic failure")
        return real(proc, feat, dom, n, seed, **kwargs)

    monkeypatch.setattr(harness, "simulate_conditional", failing)
    rep = rl.run_growing_K(cfg)
    flagged = [r for r in rep.rows if r.flagged]
    assert len(flagged) == 1 and flagged[0].K == 6
    assert flagged[0].reps == 0
    assert len(rep.failures) == 2
    assert np.isnan(flagged[0].mse_mean)
    assert np.isfinite(rep.rows[0].mse_mean)


def _rep_alone(cfg, K, N, rep):
    """One repetition of a Regress-Later sweep point, sampled, paid off and
    fitted on its own (no batch), as the sweep's value for it."""
    dist, dom = rl.truncated_feature_law(cfg.process, cfg.feature, cfg.domain_epsilon)
    basis = rl.build_basis(dist, K)
    alpha = rl.projection_coefficients(cfg.payoff, basis, dist)
    approx = rl.approx_error_moments(cfg.payoff, basis, dist, coefficients=alpha).mean_square
    sample = rl.simulate_conditional(cfg.process, cfg.feature, dom, N,
                                     rl.rng.derive_seed(cfg.seed, K, N, rep))
    sample = sample.with_payoffs(rl.eval_payoff(cfg.payoff, sample.feature_column()))
    fit = rl.regress_later_fit(sample, basis)
    return approx + rl.coefficient_error(fit, basis, cfg.payoff, dist, true_coefficients=alpha)


def test_failures_in_a_batch_stay_per_repetition(monkeypatch):
    # K=4, N=1629: all five repetitions share one batch (one kernel call);
    # rep 1 fails to sample, and rep 3's sample lies outside every bin
    cfg = small_growing_config(seed=316, reps=5)
    K, N = cfg.points()[0]
    assert len(harness._batches(N, cfg.repetitions)) == 1
    seeds = {rl.rng.derive_seed(cfg.seed, K, N, rep): rep for rep in range(cfg.repetitions)}
    real = harness.simulate_conditional

    def failing(proc, feat, dom, n, seed, **kwargs):
        rep = seeds.get(seed) if n == N else None
        if rep == 1:
            raise rl.SamplingError("synthetic failure")
        sample = real(proc, feat, dom, n, seed, **kwargs)
        if rep == 3:
            return rl.SampleSet(np.full((n, 1), 1e3), None, seed, n)
        return sample

    monkeypatch.setattr(harness, "simulate_conditional", failing)
    report = rl.run_growing_K(cfg)
    assert report.failures == [
        f"point (K={K}, N={N}) rep 1: synthetic failure",
        f"point (K={K}, N={N}) rep 3: every basis column is empty on this sample"]
    row = report.rows[0]
    assert row.reps == 3 and not row.flagged
    want = harness._mean_stderr([_rep_alone(cfg, K, N, rep) for rep in (0, 2, 4)])
    assert (row.mse_mean, row.mse_stderr) == want
    assert [r.reps for r in report.rows[1:]] == [5, 5]


def test_batches_that_do_not_divide_the_repetitions_are_worker_invariant():
    # batches of 7, 3 and 1 repetitions: [0-6] [7]; [0-2] [3-5] [6-7]; one each
    cfg = rl.ExperimentConfig(
        name="t-batches", process=rl.ProcessSpec("brownian", 10.0),
        payoff=rl.PayoffSpec("tanh"), feature=rl.FeatureSpec("terminal", 10.0),
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

    def counting(edges, centers, norm0, norm1, u, x, sizes_=None):
        sizes.append((len(u), None if sizes_ is None else len(sizes_)))
        return kernel(edges, centers, norm0, norm1, u, x, sizes_)

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
        name="t-paired", process=rl.ProcessSpec("brownian", 10.0),
        payoff=rl.PayoffSpec("square"),
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

    def failing(blocks, basis, fits=None):
        blocks = list(blocks)
        if sum(b.n for b in blocks) == 10000 * (fits or 1):  # the middle point
            raise rl.DegenerateDesignError("synthetic failure")
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


def test_paired_requires_supported_payoff():
    with pytest.raises(ConfigurationError):
        rl.ExperimentConfig(
            name="bad", process=rl.ProcessSpec("brownian", 10.0),
            payoff=rl.PayoffSpec("tanh"),
            feature=rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=1.0),
            sweep="growing_K", K_list=(4,), repetitions=1, seed=1, N_rule=(100.0, 2.01))


# ---------------------------------------------------------------------------
# streamed repetitions: one rng block at a time
# ---------------------------------------------------------------------------

def test_sample_blocks_concatenate_to_the_one_shot_draws():
    proc, feat = rl.ProcessSpec("brownian", 10.0), rl.FeatureSpec("terminal", 1.0)
    _, dom = rl.truncated_feature_law(proc, feat, 1e-4)
    n = 2 * rl.rng.BLOCK_SIZE + 17
    blocks = list(harness._sample_blocks(proc, feat, dom, n, 41))
    assert [b.n for b in blocks] == [rl.rng.BLOCK_SIZE, rl.rng.BLOCK_SIZE, 17]
    one_shot = rl.simulate_conditional(proc, feat, dom, n, 41)
    w = one_shot.feature_column()
    assert np.array_equal(np.concatenate([b.feature_column() for b in blocks]), w)
    assert sum(b.meta["proposals"] for b in blocks) == one_shot.meta["proposals"]
    # Regress-Now: states block j pairs with block j of the continuation normals
    square = rl.PayoffSpec("square")
    cont = harness._continued_blocks(square, 3.0, 42, iter(blocks))
    x = rl.eval_payoff(square, w + 3.0 * rl.rng.block_standard_normal(n, 42))
    assert np.array_equal(np.concatenate([b.payoffs for b in cont]), x)


def _memory_config(paired: bool, n: int) -> rl.ExperimentConfig:
    if paired:
        return rl.ExperimentConfig(
            name="t-memory", process=rl.ProcessSpec("brownian", 10.0),
            payoff=rl.PayoffSpec("square"),
            feature=rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=1.0),
            sweep="fixed_K", K_list=(8,), repetitions=1, seed=315, N_list=(n, n + 1, n + 2))
    return rl.ExperimentConfig(
        name="t-memory", process=rl.ProcessSpec("brownian", 10.0),
        payoff=rl.PayoffSpec("tanh"), feature=rl.FeatureSpec("terminal", 10.0),
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
    assert peaks[2**20] < 6 * 2**20


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
    # the block simulate_conditional built is validated there; attaching its
    # payoffs checks the payoffs only
    built = []
    post_init = rl.SampleSet.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    monkeypatch.setattr(rl.SampleSet, "__post_init__", counting)
    proc, feat = rl.ProcessSpec("brownian", 10.0), rl.FeatureSpec("terminal", 10.0)
    _, dom = rl.truncated_feature_law(proc, feat, 1e-4)
    n = 2 * rl.rng.BLOCK_SIZE + 5
    blocks = list(harness._payoff_blocks(rl.PayoffSpec("tanh"),
                                         harness._sample_blocks(proc, feat, dom, n, 43)))
    assert built == [rl.rng.BLOCK_SIZE, rl.rng.BLOCK_SIZE, 5]
    for b in blocks:
        assert np.array_equal(b.payoffs, np.tanh(b.feature_column()))
        assert not b.payoffs.flags.writeable
