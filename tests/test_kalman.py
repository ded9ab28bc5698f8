import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdsbm import kalman
from sdsbm.em import e_step
from sdsbm.generator import GenParams, generate_block_series, seasonal_state, sine_profile
from sdsbm.kalman import FilterError, GaussianBelief, forecast, predict, smooth, update
from sdsbm.ssm import ModelParams, binomial_obs_noise, build_state_space

from conftest import make_series
from gaussian_oracle import OracleRun


def random_psd(rng, d, scale=0.01):
    A = rng.normal(size=(d, d))
    return scale * (A @ A.T + d * np.eye(d))


def random_instance(rng, d, T, n=50, r=0.0):
    """A well-conditioned random model plus a random count series."""
    params = ModelParams(
        d=d,
        q_m=float(rng.uniform(1e-4, 1e-2)),
        q_s=float(rng.uniform(1e-4, 1e-2)),
        r=r,
        mu0=np.concatenate(([rng.uniform(0.3, 0.7)], rng.normal(0, 0.05, d - 1))),
        Sigma0=random_psd(rng, d),
    )
    counts = rng.integers(low=n // 4, high=3 * n // 4, size=T).astype(float)
    return params, make_series(counts, n=n)


def oracle_for(series, params, seq):
    ss = params.state_space(series.n)
    b_seq = seq.u + series.n**2 * params.r
    return OracleRun(ss.G, ss.H, ss.Q, params.mu0, params.Sigma0, series.counts, b_seq)


class TestPredict:
    def test_deterministic_propagation(self):
        ss = build_state_space(3, 10, 0.0, 0.0, 0.0)
        belief = GaussianBelief(np.array([0.5, 0.1, -0.1]), np.zeros((3, 3)))
        out = predict(belief, ss)
        np.testing.assert_allclose(out.mean, [0.5, 0.0, 0.1], atol=0)
        np.testing.assert_array_equal(out.cov, np.zeros((3, 3)))

    def test_orthogonal_transition_keeps_identity_cov(self):
        ss = build_state_space(2, 10, 0.0, 0.0, 0.0)
        out = predict(GaussianBelief(np.zeros(2), np.eye(2)), ss)
        np.testing.assert_allclose(out.cov, np.eye(2), atol=1e-15)

    def test_matches_naive_recomputation(self, rng):
        ss = build_state_space(4, 10, 3e-3, 2e-3, 0.0)
        belief = GaussianBelief(rng.normal(size=4), random_psd(rng, 4))
        out = predict(belief, ss)
        np.testing.assert_allclose(out.mean, ss.G @ belief.mean, rtol=1e-12)
        np.testing.assert_allclose(
            out.cov, ss.G @ belief.cov @ ss.G.T + ss.Q, rtol=1e-12
        )
        out.validate()


class TestUpdate:
    def test_zero_residual_keeps_mean(self):
        ss = build_state_space(3, 10, 1e-3, 1e-3, 0.0)
        belief = GaussianBelief(np.array([0.5, 0.0, 0.0]), 0.01 * np.eye(3))
        w = float(ss.H @ belief.mean)
        out, gain, _, _ = update(belief, w, ss, u_t=2.5)
        np.testing.assert_allclose(out.mean, belief.mean, atol=0)

    def test_infinite_noise_freezes_belief(self):
        ss = build_state_space(3, 10, 1e-3, 1e-3, 0.0)
        belief = GaussianBelief(np.array([0.5, 0.1, 0.0]), 0.01 * np.eye(3))
        out, gain, _, _ = update(belief, 9.0, ss, u_t=1e12)
        assert np.linalg.norm(gain) < 1e-9
        np.testing.assert_allclose(out.mean, belief.mean, rtol=1e-6)

    def test_zero_covariance_gives_zero_gain(self):
        ss = build_state_space(3, 10, 0.0, 0.0, 0.0)
        belief = GaussianBelief(np.array([0.5, 0.0, 0.0]), np.zeros((3, 3)))
        _, gain, _, _ = update(belief, 9.0, ss, u_t=2.5)
        assert np.linalg.norm(gain) == 0.0

    @pytest.mark.filterwarnings("ignore::sdsbm.ssm.NormalApproximationWarning")
    def test_matches_joint_conditioning(self):
        # condition the 3-dimensional joint Gaussian of (x, w) on w by hand
        ss = build_state_space(2, 10, 0.0, 0.0, 0.0)
        mean = np.array([0.5, 0.0])
        cov = np.diag([0.01, 0.01])
        u = binomial_obs_noise(float(ss.H @ mean), 10)
        S = ss.H @ cov @ ss.H + u
        gain_ref = cov @ ss.H / S
        mean_ref = mean + gain_ref * (7.0 - ss.H @ mean)
        cov_ref = cov - np.outer(gain_ref, ss.H @ cov)
        out, _, _, _ = update(GaussianBelief(mean, cov), 7.0, ss, u_t=u)
        np.testing.assert_allclose(out.mean, mean_ref, rtol=1e-10)
        np.testing.assert_allclose(out.cov, cov_ref, rtol=1e-10)


class TestFilter:
    def test_empty_series(self):
        params = ModelParams(
            d=3, q_m=0.0, q_s=0.0, r=0.0, mu0=np.zeros(3), Sigma0=np.eye(3)
        )
        seq = kalman.filter(make_series([], n=10), params)
        assert seq.T == 0
        assert seq.total_loglik == 0.0

    def test_constant_series_converges_to_half(self):
        d, n = 3, 100
        params = ModelParams(
            d=d,
            q_m=1e-6,
            q_s=1e-6,
            r=0.0,
            mu0=np.array([0.3, 0.0, 0.0]),
            Sigma0=0.1 * np.eye(d),
        )
        series = make_series([n // 2] * (6 * d), n=n)
        seq = kalman.filter(series, params)
        ss = params.state_space(n)
        for t in range(5 * d, seq.T + 1):
            density = float(ss.H @ seq.filt_mean[t - 1]) / n
            assert density == pytest.approx(0.5, abs=0.01)

    def test_matches_oracle(self, rng):
        params, series = random_instance(rng, d=3, T=6)
        seq = kalman.filter(series, params)
        oracle = oracle_for(series, params, seq)
        for t in range(1, 7):
            mean_ref, cov_ref = oracle.filtered(t)
            np.testing.assert_allclose(seq.filt_mean[t - 1], mean_ref, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(seq.filt_cov[t - 1], cov_ref, rtol=1e-8, atol=1e-12)

    def test_missing_observations_skip_update(self, rng):
        params, series = random_instance(rng, d=3, T=6)
        counts = series.counts.copy()
        counts[2] = np.nan
        gappy = make_series(counts, n=series.n)
        seq = kalman.filter(gappy, params)
        np.testing.assert_array_equal(seq.filt_mean[2], seq.pred_mean[2])
        np.testing.assert_array_equal(seq.filt_cov[2], seq.pred_cov[2])
        assert np.isnan(seq.pred_loglik[2])
        oracle = oracle_for(gappy, params, seq)
        for t in range(1, 7):
            mean_ref, cov_ref = oracle.filtered(t)
            np.testing.assert_allclose(seq.filt_mean[t - 1], mean_ref, rtol=1e-8, atol=1e-12)

    def test_loglik_additivity(self, rng):
        params, series = random_instance(rng, d=3, T=6, r=1e-4)
        seq = kalman.filter(series, params)
        oracle = oracle_for(series, params, seq)
        assert seq.total_loglik == pytest.approx(oracle.observations_logpdf(), rel=1e-9)

    @pytest.mark.filterwarnings("ignore::sdsbm.ssm.NormalApproximationWarning")
    def test_error_carries_step(self):
        # a wildly indefinite prior drives the innovation variance
        # negative; the filter must report the offending step
        ss = build_state_space(2, 10, 0.0, 0.0, 0.0)
        with pytest.raises(FilterError, match="t=1") as excinfo:
            kalman.run_filter(
                np.array([5.0]), ss, np.array([0.5, 0.0]), -1e6 * np.eye(2)
            )
        assert excinfo.value.t == 1


class TestSmoother:
    def test_final_step_equals_filtered(self, rng):
        params, series = random_instance(rng, d=3, T=5)
        ss = params.state_space(series.n)
        seq = smooth(kalman.filter(series, params), ss)
        np.testing.assert_array_equal(seq.smoothed_mean[5], seq.filt_mean[4])
        np.testing.assert_array_equal(seq.smoothed_cov[5], seq.filt_cov[4])

    def test_noiseless_data_recovers_trajectory(self):
        d, n, T = 4, 200, 12
        init = seasonal_state(d, 0.5, sine_profile(d, 0.1))
        gen = GenParams(d=d, q_m=0.0, q_s=0.0, r=0.0, init=init)
        series, trace = generate_block_series(gen, n=n, T=T, rng=_RoundingRng())
        params = ModelParams(
            d=d, q_m=0.0, q_s=0.0, r=0.0,
            mu0=init, Sigma0=np.zeros((d, d)),
        )
        ss = params.state_space(n)
        seq = smooth(kalman.filter(series, params), ss)
        for t in range(1, T + 1):
            np.testing.assert_allclose(
                seq.smoothed_mean[t], trace.states[t - 1], atol=1e-8
            )

    def test_empty_series_smooths_to_prior(self):
        params = ModelParams(
            d=3, q_m=0.0, q_s=0.0, r=0.0, mu0=np.array([0.5, 0.1, -0.1]), Sigma0=np.eye(3)
        )
        ss = params.state_space(10)
        seq = smooth(kalman.filter(make_series([], n=10), params), ss)
        np.testing.assert_array_equal(seq.smoothed_mean[0], params.mu0)
        np.testing.assert_array_equal(seq.smoothed_cov[0], params.Sigma0)

    def test_matches_oracle(self, rng):
        params, series = random_instance(rng, d=3, T=6, r=1e-4)
        ss = params.state_space(series.n)
        seq = smooth(kalman.filter(series, params), ss)
        oracle = oracle_for(series, params, seq)
        for t in range(0, 7):
            mean_ref, cov_ref = oracle.smoothed(t)
            np.testing.assert_allclose(seq.smoothed_mean[t], mean_ref, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(seq.smoothed_cov[t], cov_ref, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("case", ["regular", "singular_start", "gap"])
    def test_matches_per_step_rts_pinv_reference(self, rng, case):
        if case == "singular_start":
            # Sigma0 = 0 as in the detection criteria: P_{1|0} = Q and the
            # next few one-step-ahead covariances are singular
            d = 7
            gen = GenParams(
                d=d, q_m=1e-7, q_s=1e-7, r=1e-4,
                init=seasonal_state(d, 0.5, sine_profile(d, 0.05)),
            )
            series, _ = generate_block_series(gen, n=2000, T=40, rng=rng)
            params = ModelParams(
                d=d, q_m=1e-7, q_s=1e-7, r=1e-4,
                mu0=gen.init, Sigma0=np.zeros((d, d)),
            )
        else:
            params, series = random_instance(rng, d=4, T=40, r=1e-4)
            if case == "gap":
                counts = series.counts.copy()
                counts[12:22] = np.nan
                series = make_series(counts, n=series.n)
        ss = params.state_space(series.n)
        seq = smooth(kalman.filter(series, params), ss)
        if case == "singular_start":
            assert np.linalg.matrix_rank(seq.pred_cov[1]) < params.d
        stats, _, _ = e_step(series, params)
        mean_ref, cov_ref, lag_ref = _rts_pinv_reference(seq, ss)
        for got, ref in (
            (seq.smoothed_mean, mean_ref),
            (seq.smoothed_cov, cov_ref),
            (stats.Exx_lag, lag_ref),
        ):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_singular_start_with_gap_matches_oracle(self, rng):
        params, series = random_instance(rng, d=3, T=12, r=1e-4)
        params = ModelParams(
            d=3, q_m=params.q_m, q_s=params.q_s, r=params.r,
            mu0=params.mu0, Sigma0=np.zeros((3, 3)),
        )
        counts = series.counts.copy()
        counts[3:7] = np.nan
        series = make_series(counts, n=series.n)
        ss = params.state_space(series.n)
        seq = smooth(kalman.filter(series, params), ss)
        stats, _, _ = e_step(series, params)
        oracle = oracle_for(series, params, seq)
        for t in range(13):
            mean_ref, cov_ref = oracle.smoothed(t)
            np.testing.assert_allclose(seq.smoothed_mean[t], mean_ref, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(seq.smoothed_cov[t], cov_ref, rtol=1e-8, atol=1e-12)
        for t in range(1, 13):
            np.testing.assert_allclose(
                stats.Exx_lag[t - 1], oracle.smoothed_cross(t), rtol=1e-8, atol=1e-12
            )

    def test_smoothing_never_inflates_covariance(self, rng):
        params, series = random_instance(rng, d=4, T=8)
        ss = params.state_space(series.n)
        seq = smooth(kalman.filter(series, params), ss)
        for t in range(1, 9):
            gap = seq.filt_cov[t - 1] - seq.smoothed_cov[t]
            eigs = np.linalg.eigvalsh(0.5 * (gap + gap.T))
            assert eigs.min() >= -1e-8 * max(np.trace(seq.filt_cov[t - 1]), 1e-12)


def _rts_pinv_reference(seq, ss):
    """Rauch-Tung-Striebel smoother, one pseudo-inverse per step: smoothed
    means and covariances for t = 0..T and E[x_t x_{t-1}^T] for t = 1..T."""
    T = seq.T
    mean = [seq.init_mean] + list(seq.filt_mean)
    cov = [seq.init_cov] + list(seq.filt_cov)
    gains = [None] * T
    for t in range(T - 1, -1, -1):
        J = cov[t] @ ss.G.T @ np.linalg.pinv(seq.pred_cov[t], rcond=1e-12, hermitian=True)
        mean[t] = mean[t] + J @ (mean[t + 1] - seq.pred_mean[t])
        cov[t] = cov[t] + J @ (cov[t + 1] - seq.pred_cov[t]) @ J.T
        gains[t] = J
    lag = [cov[t] @ gains[t - 1].T + np.outer(mean[t], mean[t - 1]) for t in range(1, T + 1)]
    return np.array(mean), np.array(cov), np.array(lag)


class _RoundingRng:
    """Noise-free stand-in: zero Gaussian draws, expectation counts."""

    def normal(self, loc, scale):
        return loc

    def binomial(self, n, p):
        return round(n * p)


@pytest.mark.filterwarnings("ignore::sdsbm.ssm.NormalApproximationWarning")
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 4))
def test_filter_invariants(seed, d):
    rng = np.random.default_rng(seed)
    params, series = random_instance(rng, d=d, T=6)
    seq = kalman.filter(series, params)
    for t in range(1, 7):
        # updates never add uncertainty
        assert np.trace(seq.filt_cov[t - 1]) <= np.trace(seq.pred_cov[t - 1]) + 1e-12
        GaussianBelief(seq.filt_mean[t - 1], seq.filt_cov[t - 1]).validate()


class TestForecast:
    def test_no_state_uncertainty_leaves_count_noise_only(self):
        ss = build_state_space(3, 100, 0.0, 0.0, 0.0)
        belief = GaussianBelief(np.array([0.5, 0.1, -0.1]), np.zeros((3, 3)))
        fc = forecast(belief, ss, horizon=6)
        np.testing.assert_array_equal(fc.state_var, np.zeros(6))
        np.testing.assert_array_equal(fc.total_var, fc.count_noise)

    def test_period_aligned_variance_growth_is_affine(self):
        d = 4
        ss = build_state_space(d, 100, 1e-5, 2e-5, 0.0)
        belief = GaussianBelief(
            np.array([0.5, 0.05, -0.02, 0.01]), 1e-4 * np.eye(d)
        )
        fc = forecast(belief, ss, horizon=8 * d)
        aligned = fc.state_var[d - 1 :: d]
        increments = np.diff(aligned)
        assert np.all(np.abs(increments - increments[0]) <= 1e-6 * increments[0])

    def test_period_horizon_repeats_pattern(self):
        d = 5
        ss = build_state_space(d, 100, 0.0, 0.0, 0.0)
        state = np.array([0.5, 0.08, -0.03, 0.01, -0.04])
        belief = GaussianBelief(state, np.zeros((d, d)))
        fc = forecast(belief, ss, horizon=2 * d)
        np.testing.assert_allclose(fc.count_mean[:d], fc.count_mean[d:], atol=1e-12)

    def test_measurement_contribution_constant(self):
        ss = build_state_space(3, 100, 1e-5, 1e-5, 1e-3)
        belief = GaussianBelief(np.array([0.5, 0.0, 0.0]), 1e-4 * np.eye(3))
        fc = forecast(belief, ss, horizon=9)
        assert fc.measurement_var == 100**2 * 1e-3
        np.testing.assert_array_equal(
            fc.total_var - fc.state_var - fc.count_noise,
            np.full(9, fc.measurement_var),
        )

    def test_rejects_zero_horizon(self):
        ss = build_state_space(3, 100, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="horizon"):
            forecast(GaussianBelief(np.zeros(3), np.zeros((3, 3))), ss, horizon=0)
