"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The figure-scale criteria (4, 5, 7) take 11-13 s combined on a 2-vCPU x86-64
VM, 9-11 s of it criterion 7; everything else is about a second or less.
"""
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import reglater as rl
from reglater import cli
from reglater.config import load_config
from reference import (GbmTransition, Uniform, fit_sample, gbm_basis_condexp, gram_diagnostics,
                       jensen_check, quadrature_gram, simulate_terminal)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_basket_exactness(capsys):
    start = time.perf_counter()
    code = cli.main(["basket-check"])
    elapsed = time.perf_counter() - start
    table = {(r.z1, r.z2): r.expectation for r in rl.basket_tree_expectations()}
    ok = (code == 0
          and table[(12, 6)] == Fraction(25, 4)
          and table[(6, 12)] == Fraction(7)
          and elapsed < 1.0)
    with capsys.disabled():
        _report(1, ok, f"tree nodes exact 6.25 / 7, exit {code}, {elapsed:.2f}s")


def test_criterion_2_orthonormality(w10_law, basis_cache, capsys):
    """The package's bases against the Gram matrix by quadrature.  The Gram
    (``quadrature_gram``) and the uniform law are reference copies in
    ``tests/reference.py``; the bases are the package's."""
    start = time.perf_counter()
    dist = w10_law
    unif = Uniform(0.0, 1.0)
    worst = 0.0
    for K in (2, 5, 16, 64):
        for law, basis in ((unif, rl.build_basis(unif, K)), (dist, basis_cache(K))):
            G = quadrature_gram(basis, law)
            worst = max(worst, float(np.max(np.abs(G - np.eye(2 * K)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    with capsys.disabled():
        _report(2, ok, f"max |Gram - I| = {worst:.2e} over K in {{2,5,16,64}} "
                       f"on two laws, {elapsed:.1f}s")


def test_criterion_3_approximation_rates(w10_law, basis_cache, tanh_payoff, capsys):
    start = time.perf_counter()
    dist = w10_law
    Ks = [4, 8, 16, 32, 64]
    l2s, fourths = [], []
    for K in Ks:
        m = rl.approx_error_moments(tanh_payoff, basis_cache(K), dist)
        l2s.append(m.l2)
        fourths.append(m.fourth_root)
    s4 = rl.fit_loglog_slope(Ks, fourths).slope
    s2 = rl.fit_loglog_slope(Ks, l2s).slope
    elapsed = time.perf_counter() - start
    ok = -4.5 <= s4 <= -3.5 and -2.3 <= s2 <= -1.7 and elapsed < 30.0
    with capsys.disabled():
        _report(3, ok, f"fourth-moment slope {s4:.3f} in [-4.5,-3.5], "
                       f"L2 slope {s2:.3f} in [-2.3,-1.7], {elapsed:.1f}s")


def test_criterion_4_growing_k_reproduction(capsys):
    start = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "figure1.json")
    rep = rl.run_growing_K(cfg, workers=8)
    ratios = [r.mse_mean / r.approx_l2 for r in rep.rows]
    elapsed = time.perf_counter() - start
    ok = (-5.0 <= rep.slope <= -3.0
          and all(0.5 <= q <= 2.0 for q in ratios)
          and [r.K for r in rep.rows] == [4, 6, 8, 12, 16]
          and all(r.reps == 100 for r in rep.rows))
    with capsys.disabled():
        _report(4, ok, f"MSE slope {rep.slope:.3f} in [-5,-3], mse/approx in "
                       f"[{min(ratios):.3f}, {max(ratios):.3f}] within [0.5,2], {elapsed:.0f}s")


def test_criterion_5_fixed_k_reproduction(capsys):
    start = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "figure2.json")
    rep = rl.run_fixed_K(cfg, workers=8)
    by_n = {r.N: r.mse_mean for r in rep.rows}
    drop = (by_n[10_000] - by_n[100_000]) / by_n[10_000]
    elapsed = time.perf_counter() - start
    ok = (1.0 <= rep.plateau_statistic <= 1.5) and drop <= 0.10
    with capsys.disabled():
        _report(5, ok, f"plateau {rep.plateau_statistic:.4f} in [1.0,1.5], "
                       f"MSE drop 1e4->1e5 = {100*drop:.2f}% <= 10%, {elapsed:.0f}s")


def test_criterion_6_gram_convergence(w10_law, basis_cache, capsys):
    """The sample Gram of the package's sampler and basis converges to the
    identity.  The statistic (``gram_diagnostics``) is a reference copy in
    ``tests/reference.py``, on the package's kernel."""
    start = time.perf_counter()
    law = w10_law
    basis = basis_cache(5)

    def one(seed):
        big = rl.simulate_conditional(law, 100_000, 50_000 + seed)
        small = rl.simulate_conditional(law, 1_000, 60_000 + seed)
        fro_b, lmin_b = gram_diagnostics(basis, big)
        fro_s, _ = gram_diagnostics(basis, small)
        return fro_b, fro_s, lmin_b

    rows = list(map(one, range(100)))
    fro_big = np.median([r[0] for r in rows])
    fro_small = np.median([r[1] for r in rows])
    lmin_med = np.median([r[2] for r in rows])
    elapsed = time.perf_counter() - start
    ok = fro_big < fro_small and abs(lmin_med - 1.0) < 0.1
    with capsys.disabled():
        _report(6, ok, f"median Frobenius {fro_big:.4f} (N=1e5) < {fro_small:.4f} (N=1e3), "
                       f"median lambda_min {lmin_med:.4f} within 0.1 of 1, {elapsed:.0f}s")


def test_criterion_7_now_rate_floor_and_paired(capsys):
    start = time.perf_counter()
    fixed_cfg = load_config(CONFIG_DIR / "now_vs_later_fixed.json")
    fixed = rl.now_vs_later_compare(fixed_cfg, workers=8)
    slope_now = fixed.slope_now.slope

    growing_doc = json.loads((CONFIG_DIR / "now_vs_later_growing.json").read_text())

    def one_batch(batch):
        doc = dict(growing_doc)
        doc["seed"] = growing_doc["seed"] + batch
        from reglater.config import validate_config_dict
        rep = rl.now_vs_later_compare(validate_config_dict(doc), workers=1)
        return rep.slope_later.slope < rep.slope_now.slope

    wins = sum(map(one_batch, range(100)))
    elapsed = time.perf_counter() - start
    ok = (-1.3 <= slope_now <= -0.7) and wins >= 90
    with capsys.disabled():
        _report(7, ok, f"Regress-Now slope vs N {slope_now:.3f} in [-1.3,-0.7]; "
                       f"Regress-Later steeper in {wins}/100 seed batches, {elapsed:.0f}s")


def test_criterion_8_jensen_transfer(w10_law, basis_cache, capsys):
    """Conditioning the package's fit through its transfer can only shrink
    the mean-square error.  The paired draws (``simulate_terminal``) and the
    check (``jensen_check``) are reference copies in ``tests/reference.py``;
    the fit, the transfer and the oracle are the package's."""
    start = time.perf_counter()
    law = w10_law
    results = []

    def run_case(payoff, K, n, t, truth=None):
        basis = basis_cache(K)
        train = rl.simulate_conditional(law, n, 70_000 + K)
        if isinstance(payoff, rl.PayoffSpec):
            x = rl.eval_payoff(payoff, train.features)
            spec = payoff
        else:
            x = payoff(train.features)
            spec = rl.PayoffSpec("identity")
        fit = fit_sample(rl.regress_later_fit, train.with_payoffs(x), basis)
        feat = rl.FeatureSpec("pair_u_T", 10.0, intermediate_time=t)
        states, cont = simulate_terminal(feat, n, 80_000 + K)
        pays = rl.eval_payoff(spec, cont) if truth is None else payoff(cont)
        res = jensen_check(fit, basis, rl.BrownianTransition(t, 10.0), spec, states, cont, pays,
                           truth=truth)
        results.append(res)

    run_case(rl.PayoffSpec("square"), 8, 10_000, 1.0)
    run_case(rl.PayoffSpec("tanh"), 5, 20_000, 5.0)
    run_case(rl.PayoffSpec("tanh"), 8, 20_000, 10.0 - 1e-6)
    span_basis = basis_cache(8)
    alpha = np.linspace(-0.5, 0.5, 16)
    tr = rl.BrownianTransition(1.0, 10.0)
    run_case(lambda u: rl.predict(span_basis, alpha, np.atleast_1d(u)), 8, 10_000, 1.0,
             truth=lambda w: rl.condexp_estimate(tr, span_basis, alpha, w))
    elapsed = time.perf_counter() - start
    margins = [r.mse_payoff + 3 * r.mse_payoff_stderr - r.mse_cond for r in results]
    ok = all(m >= -1e-20 for m in margins)
    with capsys.disabled():
        _report(8, ok, f"mse_cond <= mse_payoff + 3se in {len(results)}/{len(results)} "
                       f"standard runs (min margin {min(margins):.2e}), {elapsed:.0f}s")


def test_criterion_9_closed_form_transfer(w10_law, basis_cache, capsys):
    """Closed-form transfers against a 256-point Gauss-Legendre quadrature
    of the transition density on every bin.  The Brownian half checks the
    package's ``basis_condexp``.  No sweep transfers under GBM, so the GBM
    half checks test code: ``gbm_basis_condexp``, ``GbmTransition`` and the
    uniform law are reference copies in ``tests/reference.py``."""
    start = time.perf_counter()
    worst = 0.0

    def reference(basis, density):
        xg, wg = leggauss(256)
        edges = basis.edges
        out = np.zeros(basis.dim)
        for k in range(basis.K):
            lo, hi = edges[k], edges[k + 1]
            u = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg
            w = 0.5 * (hi - lo) * wg * density(u)
            out[2 * k] = basis.norm0 * np.sum(w)
            out[2 * k + 1] = basis.norm1[k] * np.sum(w * (u - basis.centers[k]))
        return out

    basis_w = basis_cache(10)
    tr_w = rl.BrownianTransition(1.0, 10.0)
    s = 3.0
    for state in np.linspace(-10.0, 10.0, 50):
        dens = lambda u: np.exp(-0.5 * ((u - state) / s) ** 2) / (s * np.sqrt(2 * np.pi))
        worst = max(worst, float(np.max(np.abs(
            rl.basis_condexp(tr_w, basis_w, state) - reference(basis_w, dens)))))

    basis_s = rl.build_basis(Uniform(0.25, 2.5), 8)
    tr_s = GbmTransition(1.0, 10.0, sigma=0.2)
    v = 0.2 * 3.0
    for spot in np.linspace(0.3, 2.4, 50):
        m = np.log(spot) - 0.5 * v * v
        dens = lambda u: np.exp(-0.5 * ((np.log(u) - m) / v) ** 2) / (u * v * np.sqrt(2 * np.pi))
        worst = max(worst, float(np.max(np.abs(
            gbm_basis_condexp(tr_s, basis_s, spot) - reference(basis_s, dens)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6
    with capsys.disabled():
        _report(9, ok, f"max |closed form - 256pt quadrature| = {worst:.2e} < 1e-6 "
                       f"on 50-state grids (brownian + gbm), {elapsed:.0f}s")


def test_criterion_10_determinism(tmp_path, capsys):
    start = time.perf_counter()
    cfg_doc = json.loads((CONFIG_DIR / "figure1.json").read_text())
    cfg_doc["repetitions"] = 5
    path = tmp_path / "det.json"
    path.write_text(json.dumps(cfg_doc))
    outs = []
    for run, workers in (("a", 1), ("b", 8), ("c", 8)):
        outdir = tmp_path / run
        assert cli.main(["run", str(path), "-o", str(outdir),
                         "--workers", str(workers)]) == 0
        outs.append((outdir / "report.csv").read_bytes())
    elapsed = time.perf_counter() - start
    ok = outs[0] == outs[1] == outs[2]
    with capsys.disabled():
        _report(10, ok, f"report.csv byte-identical across workers=1/8 and repeat runs, "
                        f"{elapsed:.0f}s")
