import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from sdsbm.anomaly import (
    LogLikPolicy,
    ScoreSeries,
    SigmaPolicy,
    detect,
    score,
    write_report_json,
    write_scores_csv,
)
from sdsbm.generator import (
    generate_block_series,
    seasonal_state,
    sine_profile,
)
from sdsbm.ssm import ModelParams

import per_block_reference as ref
from conftest import concat, known_start, one_block, stacked
from gaussian_oracle import dense_model


def known_model(d=3, bias=0.5, q=0.0, r=0.0):
    return known_start(q, q, r, seasonal_state(d, bias, np.zeros(d)))


def series_scores(counts, n=100, **kw):
    return score(one_block(counts, n=n), known_model(**kw))


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
        params = known_model().take([0, 0])
        s1 = one_block([50, 60, 40], n=100, pair=("a", "a"))
        s2 = one_block([55, 45, 50], n=100, pair=("a", "b"))
        scores = score(concat([s1, s2]), params)
        np.testing.assert_array_equal(
            scores.graph_loglik, np.nansum(scores.loglik, axis=0)
        )

    @pytest.mark.parametrize("mode", ["predictive", "smoothed"])
    def test_unobserved_snapshot_has_no_graph_score(self, mode):
        # a step where no block is observed scores NaN, not an empty sum
        # of 0.0, so even an infinite floor does not flag it
        params = known_model().take([0, 0])
        s1 = one_block([50, np.nan, 40], n=100, pair=("a", "a"))
        s2 = one_block([55, np.nan, 50], n=100, pair=("a", "b"))
        scores = score(concat([s1, s2]), params, mode=mode)
        assert np.isnan(scores.graph_loglik[1])
        assert np.isfinite(scores.graph_loglik[[0, 2]]).all()
        assert detect(scores, LogLikPolicy(c0=math.inf)).graph_flags.tolist() == [1, 3]

    def test_two_block_additivity_values(self):
        scores = ScoreSeries(
            pairs=(("a", "a"), ("a", "b")),
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
        blocks, stack = one_block(counts, n=100), stacked([params])
        scores = score(blocks, stack, mode="smoothed")
        ss = dense_model(params, 100)
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
        blocks = concat([one_block([50], pair=("a", "a")), one_block([50], pair=("a", "b"))])
        with pytest.raises(ValueError, match="differ in number"):
            score(blocks, known_model())

    def test_null_predictive_z_is_standard_normal(self):
        # Kolmogorov-Smirnov check against N(0, 1) on model-generated data
        rng = np.random.default_rng(100)
        d, n, T = 7, 2000, 2500
        truth = known_start(1e-7, 1e-7, 1e-4, seasonal_state(d, 0.5, np.zeros(d))).take([0] * 4)
        pairs = [(f"t{i}", f"t{i}") for i in range(4)]
        blocks, _, _ = generate_block_series(truth, n=n, T=T, rng=rng, pairs=pairs)
        scores = score(blocks, truth)
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

    @pytest.mark.parametrize("B, n, T", [(3, 2000, 20_000), (78, 496, 1000)])
    def test_graph_step_rate_on_null_data(self, B, n, T):
        # a graph-step is flagged when any of its B blocks is, so at k = 3
        # its rate is 1 - (1 - 2 Phi(-3))^B, about 0.8 % at B = 3 and 19 %
        # at B = 78 (the README's figures)
        rng = np.random.default_rng(77)
        d = 7
        mu0 = seasonal_state(d, 0.5, sine_profile(d, 0.05))
        truth = known_start(1e-7, 1e-7, 1e-4, mu0).take([0] * B)
        pairs = [(f"t{i}", f"t{i}") for i in range(B)]
        blocks, _, _ = generate_block_series(truth, n=n, T=T, rng=rng, pairs=pairs)
        report = detect(score(blocks, truth), SigmaPolicy(3.0))
        p = 1.0 - (1.0 - 2.0 * sps.norm.sf(3.0)) ** B
        lo, hi = sps.binom.ppf([0.005, 0.995], T, p)
        assert lo <= report.graph_mask.sum() <= hi

    def test_below_threshold_not_flagged(self):
        policy = SigmaPolicy(3.0)
        report = detect(_flat_scores(z=2.9), policy)
        assert not report.block_mask.any() and not report.graph_mask.any()

    def test_negative_excursion_flagged(self):
        policy = SigmaPolicy(1.96)
        report = detect(_flat_scores(z=-2.0), policy)
        assert report.block_mask.any()
        assert report.graph_mask.any()

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
        assert report.graph_flags.tolist() == [2]
        assert not report.block_mask.any()

    def test_minus_infinity_floor_flags_nothing(self):
        scores = _flat_scores(T=3)
        scores.graph_loglik = np.array([-3.0, -50.0, -4.0])
        report = detect(scores, LogLikPolicy(c0=-math.inf))
        assert not report.block_mask.any() and not report.graph_mask.any()

    def test_policy_is_monotone(self):
        rng = np.random.default_rng(8)
        scores = _flat_scores(T=50, pairs=(("a", "a"), ("a", "b")))
        scores.z = rng.normal(size=(2, 50)) * 2.0
        scores.loglik = -(rng.random(size=(2, 50)) * 10.0)
        scores.graph_loglik = scores.loglik.sum(axis=0)
        # one flag set lies inside another when each of its masks implies the other's
        for k_lo, k_hi in [(2.0, 3.0), (1.0, 2.5)]:
            lo = detect(scores, SigmaPolicy(k_hi))
            hi = detect(scores, SigmaPolicy(k_lo))
            assert np.all(lo.block_mask <= hi.block_mask) and np.all(lo.graph_mask <= hi.graph_mask)
        for c_lo, c_hi in [(-15.0, -10.0), (-12.0, -6.0)]:
            few = detect(scores, LogLikPolicy(c_lo))
            many = detect(scores, LogLikPolicy(c_hi))
            assert np.all(few.block_mask <= many.block_mask) and np.all(few.graph_mask <= many.graph_mask)

    def test_flag_invariant(self):
        rng = np.random.default_rng(9)
        scores = _flat_scores(T=40, pairs=(("a", "a"), ("b", "b")))
        scores.z = rng.normal(size=(2, 40)) * 2.0
        report = detect(scores, SigmaPolicy(2.0))
        assert np.all(np.abs(scores.z[report.block_mask]) > report.threshold)
        assert np.all(np.abs(report.graph_score[report.graph_mask]) > report.threshold)

    def test_injected_spike_ranked_first(self):
        rng = np.random.default_rng(33)
        d, n, T, t_star = 5, 1000, 40, 25
        params = known_start(1e-6, 1e-6, 1e-4, seasonal_state(d, 0.5, np.zeros(d))).take([0] * 3)
        pairs = [(f"t{i}", f"t{i}") for i in range(3)]
        blocks, _, _ = generate_block_series(params, n=n, T=T, rng=rng, pairs=pairs)
        clean = score(blocks, params)
        shift = 6.0 * math.sqrt(clean.pred_var[1, t_star - 1])
        spiked = blocks.counts.copy()
        spiked[1, t_star - 1] = min(spiked[1, t_star - 1] + round(shift), n)
        blocks = replace(blocks, counts=spiked)
        report = detect(score(blocks, params), SigmaPolicy(3.0), drill_down=True)
        assert report.graph_mask[t_star - 1], "spike step must be flagged at graph level"
        assert report.ranked_blocks[t_star][0][0] == ("t1", "t1")


class TestSerialization:
    def test_csv_and_json_outputs(self, tmp_path):
        scores = _flat_scores(T=2, pairs=(("a", "a"), ("a", "b")))
        scores.z[0, 1] = 4.0
        report = detect(scores, SigmaPolicy(3.0), drill_down=True)
        csv_path = tmp_path / "scores.csv"
        json_path = tmp_path / "report.json"
        write_scores_csv(scores, report, csv_path)
        write_report_json(scores, report, json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,scope,block_a,block_b,w,pred_mean,pred_var,loglik,z,flagged"
        assert len(lines) == 1 + 2 * (2 + 1)  # per t: two block rows + one graph row
        flagged_rows = [l for l in lines[1:] if l.endswith(",1")]
        assert len(flagged_rows) == 2  # one block row and one graph row at t=2
        payload = json.loads(json_path.read_text())
        assert payload["policy"] == "sigma:3"
        assert payload["counts"] == {"graph": 1, "block": 1}
        assert payload["flagged"][0]["ranked_blocks"] is not None
