import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sdsbm.anomaly import (
    LogLikPolicy,
    ScoreSeries,
    SigmaPolicy,
    detect,
    score,
    write_report_json,
    write_scores_csv,
)
from sdsbm.generator import GenParams, default_state, generate_block_series
from sdsbm.ssm import ModelParams, ParamStack

import per_block_reference as ref
from conftest import concat, one_block


def known_model(d=3, n=100, bias=0.5, q=0.0, r=0.0):
    init = default_state(d, bias=bias)
    gen = GenParams(d=d, q_m=q, q_s=q, r=r, init=init)
    params = ModelParams(
        d=d, q_m=q, q_s=q, r=r, mu0=init, Sigma0=np.zeros((d, d))
    )
    return gen, params


def series_scores(counts, n=100, **kw):
    gen, params = known_model(n=n, **kw)
    return score(one_block(counts, n=n), ParamStack.of([params]))


class TestScore:
    def test_mode_score_at_predictive_mean(self):
        n = 100
        scores = series_scores([n // 2] * 3, n=n)
        V = 25.0  # binomial noise at density one half
        np.testing.assert_allclose(scores.z[0], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(
            scores.loglik[0], -0.5 * math.log(2 * math.pi * V), rtol=1e-12
        )

    def test_graph_score_is_block_sum(self):
        gen, params = known_model()
        s1 = one_block([50, 60, 40], n=100, pair=("a", "a"))
        s2 = one_block([55, 45, 50], n=100, pair=("a", "b"))
        scores = score(concat([s1, s2]), ParamStack.of([params, params]))
        np.testing.assert_array_equal(
            scores.graph_loglik, np.nansum(scores.loglik, axis=0)
        )

    def test_two_block_additivity_values(self):
        scores = ScoreSeries(
            pairs=(("a", "a"), ("a", "b")),
            mode="predictive",
            w=np.zeros((2, 1)),
            pred_mean=np.zeros((2, 1)),
            pred_var=np.ones((2, 1)),
            loglik=np.array([[-3.0], [-4.5]]),
            z=np.zeros((2, 1)),
            graph_loglik=np.nansum(np.array([[-3.0], [-4.5]]), axis=0),
        )
        assert scores.graph_loglik[0] == -7.5

    def test_smoothed_mode_uses_posterior_moments(self):
        # reproduce the smoothed-mode density by hand for one block, from
        # the per-block reference smoother's state moments
        rng = np.random.default_rng(2)
        params = ModelParams(
            d=3, q_m=1e-4, q_s=1e-4, r=1e-4,
            mu0=np.array([0.5, 0.0, 0.0]), Sigma0=0.01 * np.eye(3),
        )
        counts = rng.integers(30, 70, size=6).astype(float)
        blocks, stack = one_block(counts, n=100), ParamStack.of([params])
        scores = score(blocks, stack, mode="smoothed")
        ss = params.state_space(100)
        seq = ref.smooth(ref.run_filter(counts, ss, params.mu0, params.Sigma0), ss)
        for t in range(1, 7):
            mean = float(ss.H @ seq.smoothed_mean[t])
            var = float(ss.H @ seq.smoothed_cov[t] @ ss.H) + seq.u[t - 1] + 100**2 * params.r
            want = -0.5 * (math.log(2 * math.pi * var) + (counts[t - 1] - mean) ** 2 / var)
            assert scores.loglik[0, t - 1] == pytest.approx(want, rel=1e-12)

    def test_missing_steps_score_nan(self):
        scores = series_scores([50, np.nan, 50])
        assert np.isnan(scores.loglik[0, 1])
        assert np.isnan(scores.z[0, 1])

    def test_parameter_count_must_match_blocks(self):
        gen, params = known_model()
        blocks = concat([one_block([50], pair=("a", "a")), one_block([50], pair=("a", "b"))])
        with pytest.raises(ValueError, match="differ in number"):
            score(blocks, ParamStack.of([params]))

    def test_null_predictive_z_is_standard_normal(self):
        # Kolmogorov-Smirnov check against N(0, 1) on model-generated data
        rng = np.random.default_rng(100)
        d, n, T = 7, 2000, 2500
        blocks = []
        gen = GenParams(d=d, q_m=1e-7, q_s=1e-7, r=1e-4, init=default_state(d, bias=0.5))
        for i in range(4):
            series, _ = generate_block_series(gen, n=n, T=T, rng=rng, pair=(f"t{i}", f"t{i}"))
            blocks.append(series)
        params = ModelParams(d=d, q_m=1e-7, q_s=1e-7, r=1e-4, mu0=gen.init, Sigma0=np.zeros((d, d)))
        scores = score(concat(blocks), ParamStack.of([params] * 4))
        z = np.sort(scores.z.ravel())
        assert z.shape[0] == 10_000
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
        ecdf_hi = np.arange(1, z.shape[0] + 1) / z.shape[0]
        ecdf_lo = np.arange(0, z.shape[0]) / z.shape[0]
        ks = max(np.abs(ecdf_hi - cdf).max(), np.abs(ecdf_lo - cdf).max())
        assert ks < 0.02


class TestThresholdSigma:
    def test_three_sigma_rate_constant(self):
        # two-sided tail mass at k=3 is about 1 in 370
        tail = 2 * (1 - 0.5 * (1 + math.erf(3 / math.sqrt(2))))
        assert 1 / tail == pytest.approx(370, abs=1)

    def test_below_threshold_not_flagged(self):
        policy = SigmaPolicy(3.0)
        scores = _flat_scores(z=2.9)
        assert detect(scores, policy).flagged == ()

    def test_negative_excursion_flagged(self):
        policy = SigmaPolicy(1.96)
        report = detect(_flat_scores(z=-2.0), policy)
        assert any(f.scope == "block" for f in report.flagged)
        assert any(f.scope == "graph" for f in report.flagged)

    def test_rejects_non_positive_k(self):
        # k = -1 would flag every block-step
        for k in (0.0, -1.0):
            with pytest.raises(ValueError, match="must be positive"):
                SigmaPolicy(k)

    def test_rejects_nan_k(self):
        # |z| > NaN is false everywhere: a NaN k would flag nothing
        with pytest.raises(ValueError, match="must be positive"):
            SigmaPolicy(float("nan"))


def _flat_scores(z=0.0, loglik=-3.0, T=1, pairs=(("a", "a"),)):
    B = len(pairs)
    return ScoreSeries(
        pairs=pairs,
        mode="predictive",
        w=np.full((B, T), 50.0),
        pred_mean=np.full((B, T), 50.0),
        pred_var=np.full((B, T), 25.0),
        loglik=np.full((B, T), loglik),
        z=np.full((B, T), z),
        graph_loglik=np.full(T, loglik * B),
    )


class TestDetect:
    def test_loglik_threshold_flags_only_low_scores(self):
        scores = _flat_scores(T=3)
        scores.graph_loglik = np.array([-3.0, -50.0, -4.0])
        report = detect(scores, LogLikPolicy(c0=-10.0))
        assert [f.t for f in report.flagged] == [2]
        assert report.flagged[0].scope == "graph"

    def test_minus_infinity_floor_flags_nothing(self):
        scores = _flat_scores(T=3)
        scores.graph_loglik = np.array([-3.0, -50.0, -4.0])
        assert detect(scores, LogLikPolicy(c0=-math.inf)).flagged == ()

    def test_policy_is_monotone(self):
        rng = np.random.default_rng(8)
        scores = _flat_scores(T=50, pairs=(("a", "a"), ("a", "b")))
        scores.z = rng.normal(size=(2, 50)) * 2.0
        scores.loglik = -(rng.random(size=(2, 50)) * 10.0)
        scores.graph_loglik = scores.loglik.sum(axis=0)
        for k_lo, k_hi in [(2.0, 3.0), (1.0, 2.5)]:
            lo = {(f.t, f.pair) for f in detect(scores, SigmaPolicy(k_hi)).flagged}
            hi = {(f.t, f.pair) for f in detect(scores, SigmaPolicy(k_lo)).flagged}
            assert lo <= hi
        for c_lo, c_hi in [(-15.0, -10.0), (-12.0, -6.0)]:
            few = {f.t for f in detect(scores, LogLikPolicy(c_lo)).flagged}
            many = {f.t for f in detect(scores, LogLikPolicy(c_hi)).flagged}
            assert few <= many

    def test_flag_invariant(self):
        rng = np.random.default_rng(9)
        scores = _flat_scores(T=40, pairs=(("a", "a"), ("b", "b")))
        scores.z = rng.normal(size=(2, 40)) * 2.0
        report = detect(scores, SigmaPolicy(2.0))
        for item in report.flagged:
            assert abs(item.score) > item.threshold

    def test_injected_spike_ranked_first(self):
        rng = np.random.default_rng(33)
        d, n, T, t_star = 5, 1000, 40, 25
        blocks = []
        gen = GenParams(d=d, q_m=1e-6, q_s=1e-6, r=1e-4, init=default_state(d, bias=0.5))
        for i in range(3):
            series, _ = generate_block_series(gen, n=n, T=T, rng=rng, pair=(f"t{i}", f"t{i}"))
            blocks.append(series)
        blocks = concat(blocks)
        params = ParamStack.of(
            [ModelParams(d=d, q_m=1e-6, q_s=1e-6, r=1e-4, mu0=gen.init, Sigma0=np.zeros((d, d)))] * 3
        )
        clean = score(blocks, params)
        shift = 6.0 * math.sqrt(clean.pred_var[1, t_star - 1])
        spiked = blocks.counts.copy()
        spiked[1, t_star - 1] = min(spiked[1, t_star - 1] + round(shift), n)
        blocks = replace(blocks, counts=spiked)
        report = detect(score(blocks, params), SigmaPolicy(3.0), drill_down=True)
        graph_hits = [f for f in report.graph_flags if f.t == t_star]
        assert graph_hits, "spike step must be flagged at graph level"
        assert graph_hits[0].ranked_blocks[0][0] == ("t1", "t1")


class TestSerialization:
    def test_csv_and_json_outputs(self, tmp_path):
        scores = _flat_scores(T=2, pairs=(("a", "a"), ("a", "b")))
        scores.z[0, 1] = 4.0
        report = detect(scores, SigmaPolicy(3.0), drill_down=True)
        csv_path = tmp_path / "scores.csv"
        json_path = tmp_path / "report.json"
        write_scores_csv(scores, report, csv_path)
        write_report_json(report, json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,scope,block_a,block_b,w,pred_mean,pred_var,loglik,z,flagged"
        assert len(lines) == 1 + 2 * (2 + 1)  # per t: two block rows + one graph row
        flagged_rows = [l for l in lines[1:] if l.endswith(",1")]
        assert len(flagged_rows) == 2  # one block row and one graph row at t=2
        payload = json.loads(json_path.read_text())
        assert payload["policy"] == "sigma:3"
        assert payload["counts"] == {"graph": 1, "block": 1}
        assert payload["flagged"][0]["ranked_blocks"] is not None
