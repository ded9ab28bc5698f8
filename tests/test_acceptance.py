"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-rA``
to see them all) and enforces its stated tolerance and runtime budget.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from sdsbm import anomaly, kalman
from sdsbm.cli import main as cli_main
from sdsbm.em import EmConfig, default_init, em_fit, m_step_q
from sdsbm.generator import (
    generate_block_series,
    seasonal_state,
    sine_profile,
)
from sdsbm.ssm import ModelParams

from conftest import concat, known_start, one_block, stacked
from gaussian_oracle import OracleRun, dense_model
from test_em import fit_one, numeric_q_argmax
from test_kalman import oracle_for


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def _random_model(rng, d):
    A = rng.normal(size=(d, d))
    return ModelParams(
        d=d,
        q_m=float(rng.uniform(1e-4, 1e-2)),
        q_s=float(rng.uniform(1e-4, 1e-2)),
        r=float(rng.choice([0.0, 1e-4, 1e-3])),
        mu0=np.concatenate(([rng.uniform(0.3, 0.7)], rng.normal(0, 0.05, d - 1))),
        Sigma0=0.01 * (A @ A.T + d * np.eye(d)),
    )


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(25):
        d = int(rng.integers(2, 5))
        T = int(rng.integers(1, 9))
        n = 50
        params = _random_model(rng, d)
        counts = rng.integers(n // 4, 3 * n // 4, size=T).astype(float)
        blocks, stack = one_block(counts, n=n), stacked([params])
        ss = dense_model(params, n)
        seq = kalman.smooth(kalman.filter(blocks, stack))
        oracle = OracleRun(
            ss.G, ss.H, ss.Q, params.mu0, params.Sigma0, counts, seq.u[0] + n * n * params.r
        )
        # every quantity the filter and smoother return, each against its own scale
        for name, want in {**oracle.filter_record(), **oracle.smoothed_record()}.items():
            scale = max(np.abs(want).max(), 1e-12)
            worst = max(worst, np.abs(getattr(seq, name)[0] - want).max() / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(
        1,
        "filter/smoother equal joint-Gaussian conditioning",
        ok,
        f"worst rel err {worst:.2e} <= 1e-8; {elapsed:.2f}s < 1s over 25 instances",
    )


def test_criterion_2_em_monotonicity():
    # 20 generated blocks fitted as one stack; each block's trace is that
    # of fitting it alone
    start = time.perf_counter()
    d, T, n = 7, 280, 2000
    blocks = []
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        truth = known_start(
            q_m=float(rng.choice([1e-7, 1e-6, 1e-5])),
            q_s=float(rng.choice([1e-7, 1e-6, 1e-5])),
            r=float(rng.choice([0.0, 1e-4, 1e-3])),
            mu0=seasonal_state(d, float(rng.uniform(0.4, 0.6)), sine_profile(d, 0.08)),
        )
        series, _, _ = generate_block_series(truth, n=n, T=T, rng=rng, pairs=[("a", f"b{seed:02d}")])
        blocks.append(series)
    blocks = concat(blocks)
    _, record = em_fit(blocks, default_init(blocks, d), EmConfig(max_iter=25, tol=1e-12))
    worst_drop = 0.0
    for loglik in record.loglik.T:
        drops = -np.diff(loglik[~np.isnan(loglik)])
        if drops.size:
            worst_drop = max(worst_drop, float(drops.max()))
    elapsed = time.perf_counter() - start
    ok = worst_drop <= 1e-8 and elapsed < 30.0
    _report(
        2,
        "EM log-likelihood monotonicity",
        ok,
        f"worst decrease {worst_drop:.2e} <= 1e-8; {elapsed:.1f}s < 30s over 20 blocks",
    )


def test_criterion_3_measurement_noise_contrast():
    start = time.perf_counter()
    d, T, n = 7, 280, 2000
    rng = np.random.default_rng(42)
    truth = known_start(1e-7, 1e-7, 1e-3, seasonal_state(d, 0.7, sine_profile(d, 0.1)))
    series, _, _ = generate_block_series(truth, n=n, T=T, rng=rng)
    init = default_init(series, d)
    free, _ = fit_one(series, init, EmConfig(max_iter=80, tol=1e-9))
    pinned, _ = fit_one(
        series, init, EmConfig(max_iter=80, tol=1e-9, fix_r_to_zero=True)
    )

    def half_width(params):
        stack = stacked([params])
        seq = kalman.filter(series.with_gaps(3 * d), stack)  # the forecast's 3d steps
        return 1.959964 * math.sqrt(seq.innov_var[0, -1])

    q_ratio = (pinned.q_m + pinned.q_s) / (free.q_m + free.q_s)
    hw_ratio = half_width(pinned) / half_width(free)
    r_factor = max(free.r / 1e-3, 1e-3 / free.r) if free.r > 0 else math.inf
    elapsed = time.perf_counter() - start
    ok = q_ratio >= 5.0 and hw_ratio >= 2.0 and r_factor <= 3.0 and elapsed < 60.0
    _report(
        3,
        "pinned-r vs free-r contrast",
        ok,
        f"q ratio {q_ratio:.1f} >= 5; half-width ratio {hw_ratio:.2f} >= 2; "
        f"r within factor {r_factor:.2f} <= 3; {elapsed:.1f}s < 60s",
    )


def test_criterion_4_forecast_variance_growth():
    d, n = 7, 1000
    params = ModelParams(
        d=d, q_m=2e-6, q_s=1e-6, r=1e-4,
        mu0=seasonal_state(d, 0.5, sine_profile(d, 0.08)),
        Sigma0=1e-5 * np.eye(d),
    )
    stack = stacked([params])
    H = dense_model(params, n).H
    # forecast from the prior: the filter over an all-gap series
    seq = kalman.filter(one_block(np.full(10 * d, np.nan), n=n), stack)
    state_var = np.einsum("ti,i->t", seq.PH[0], H)  # H p_t
    aligned = state_var[d - 1 :: d]
    increments = np.diff(aligned)
    spread = float(np.abs(increments - increments[0]).max() / increments[0])
    # the measurement term enters every horizon as the same constant n^2 r
    measurement_var = seq.measurement_var[0]
    exact_r = measurement_var == n * n * params.r and bool(
        np.all(seq.innov_var[0] == state_var + seq.u[0] + measurement_var)
    )
    ok = spread <= 1e-6 and exact_r
    _report(
        4,
        "period-aligned forecast variance growth",
        ok,
        f"increment spread {spread:.2e} <= 1e-6; r term constant at n^2 r: {exact_r}",
    )


def test_criterion_5_detector_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    d, n, T, B = 7, 2000, 20_000, 5
    mu0 = seasonal_state(d, 0.5, sine_profile(d, 0.05))
    truth = known_start(1e-7, 1e-7, 1e-4, mu0).take([0] * B)
    pairs = [(f"t{i}", f"t{i}") for i in range(B)]
    blocks, _, _ = generate_block_series(truth, n=n, T=T, rng=rng, pairs=pairs)
    scores = anomaly.score(blocks, truth, mode="predictive")
    report = anomaly.detect(scores, anomaly.SigmaPolicy(3.0))
    flags = int(report.block_mask.sum())
    steps = B * T
    p = 2.0 * sps.norm.sf(3.0)
    lo, hi = sps.binom.ppf([0.005, 0.995], steps, p)
    elapsed = time.perf_counter() - start
    ok = lo <= flags <= hi and elapsed < 30.0
    _report(
        5,
        "three-sigma calibration on null data",
        ok,
        f"{flags} flags in [{int(lo)}, {int(hi)}] over {steps} block-steps "
        f"(expected ~{steps * p:.0f}); {elapsed:.1f}s < 30s",
    )


def test_criterion_6_detection_power():
    rng = np.random.default_rng(99)
    d, n, T, t_star = 5, 1000, 30, 24
    hits = 0
    trials = 200
    params = known_start(1e-6, 1e-6, 1e-4, seasonal_state(d, 0.5, np.zeros(d))).take([0] * 3)
    pairs = [(f"t{i}", f"t{i}") for i in range(3)]
    for _ in range(trials):
        blocks, _, _ = generate_block_series(params, n=n, T=T, rng=rng, pairs=pairs)
        clean = anomaly.score(blocks, params)
        shift = 6.0 * math.sqrt(clean.pred_var[0, t_star - 1])
        spiked = blocks.counts.copy()
        spiked[0, t_star - 1] = min(round(spiked[0, t_star - 1] + shift), n)
        blocks = replace(blocks, counts=spiked)
        report = anomaly.detect(
            anomaly.score(blocks, params), anomaly.SigmaPolicy(3.0), drill_down=True
        )
        if report.graph_mask[t_star - 1] and report.ranked_blocks[t_star][0][0] == ("t0", "t0"):
            hits += 1
    rate = hits / trials
    ok = rate >= 0.99
    _report(
        6,
        "six-sigma one-step shift detection",
        ok,
        f"flagged and ranked first in {hits}/{trials} trials (rate {rate:.3f} >= 0.99)",
    )


def test_criterion_7_process_variance_closed_form():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 5))
        n = 100
        params = _random_model(rng, d)
        counts = rng.integers(30, 70, size=int(rng.integers(4, 9))).astype(float)
        series = one_block(counts, n=n)
        seq = kalman.smooth(kalman.filter(series, stacked([params])))
        [[q_m, q_s]] = m_step_q(seq)
        ref_m, ref_s = numeric_q_argmax(oracle_for(series, params, seq))
        worst = max(worst, abs(q_m - ref_m) / ref_m, abs(q_s - ref_s) / ref_s)
    ok = worst <= 1e-6
    _report(
        7,
        "closed-form process variances vs numerical maximization",
        ok,
        f"worst rel diff {worst:.2e} <= 1e-6 over 10 instances",
    )


def test_criterion_8_generator_statistics():
    rng = np.random.default_rng(21)
    flat = known_start(0.0, 0.0, 0.0, seasonal_state(4, 0.3, np.zeros(4)))
    series, _, _ = generate_block_series(flat, n=1000, T=10_000, rng=rng)
    mean_err = abs(series.counts.mean() - 300.0) / 300.0
    var_err = abs(series.counts.var() - 210.0) / 210.0

    d = 7
    seasonal = known_start(1e-4, 0.0, 0.0, seasonal_state(d, 0.5, sine_profile(d, 0.1)))
    _, [states], _ = generate_block_series(seasonal, n=100, T=200, rng=rng)
    states = np.vstack([seasonal.mu0, states])
    window_sums = np.array(
        [states[t, 1] + states[t - 1, 1:].sum() for t in range(1, states.shape[0])]
    )
    zero_sum_exact = bool(np.all(window_sums == 0.0))
    ok = mean_err <= 0.01 and var_err <= 0.10 and zero_sum_exact
    _report(
        8,
        "generator binomial moments and zero-sum seasonality",
        ok,
        f"mean err {mean_err:.3%} <= 1%; var err {var_err:.2%} <= 10%; "
        f"zero-sum windows exact: {zero_sum_exact}",
    )


def test_criterion_9_end_to_end_determinism(tmp_path, monkeypatch):
    def pipeline(root: Path):
        root.mkdir()
        monkeypatch.chdir(root)
        assert (
            cli_main(
                [
                    "simulate", "--seed", "11", "--period", "4", "--steps", "50",
                    "--types", "a=16,b=12", "--q-m", "5e-4", "--q-s", "5e-4",
                    "--r", "0.0", "--bias", "0.55", "--season-amplitude", "0.06",
                    "--out-dir", "sim",
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "fit", "--events", "sim/events.csv", "--types", "sim/types.csv",
                    "--period", "4", "--max-iter", "600", "--tol", "1e-5",
                    "--out-dir", "fit",
                ]
            )
            == 0
        )
        code = cli_main(
            [
                "detect", "--model", "fit/model.json", "--events", "sim/events.csv",
                "--types", "sim/types.csv", "--sigma", "3", "--drill-down",
                "--out-dir", "det",
            ]
        )
        assert code in (0, 3)
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    first = pipeline(tmp_path / "one")
    second = pipeline(tmp_path / "two")
    same = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first
    )
    ok = bool(same and len(first) >= 8)
    _report(
        9,
        "simulate->fit->detect byte-level determinism",
        ok,
        f"{len(first)} output files identical across two runs: {same}",
    )
