from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_block_reference as ref
from sdsbm import kalman
from sdsbm.generator import generate_block_series, seasonal_state, sine_profile
from sdsbm.kalman import FilterError
from sdsbm.ssm import ModelParams, ParamStack, binomial_obs_noise

from conftest import concat, known_start, one_block, stacked
from gaussian_oracle import OracleRun, dense_model, smoothed_projections


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
    return params, one_block(counts, n=n)


def block(seq, b=0):
    """Block b's slice of a batched BeliefSequence."""
    view = {k: v[b] if isinstance(v, np.ndarray) else v for k, v in vars(seq).items()}
    return SimpleNamespace(
        **view, T=seq.T, pred_loglik=seq.pred_loglik[b], total_loglik=seq.total_loglik[b]
    )


def run(series, params, smoothed=False):
    """Filter (and smooth) a stack of one block; returns its slice."""
    stack = stacked([params])
    seq = kalman.filter(series, stack)
    if smoothed:
        seq = kalman.smooth(seq)
    return block(seq)


def prior(mean, cov, d, n=10, q_m=0.0, q_s=0.0, r=0.0):
    return ModelParams(d=d, q_m=q_m, q_s=q_s, r=r, mu0=np.asarray(mean, float), Sigma0=np.asarray(cov, float))


def assert_valid_cov(cov, sym_rtol=1e-10, psd_rtol=1e-8):
    """The covariance is symmetric and positive semi-definite to rounding."""
    scale = max(np.abs(cov).max(), 1e-300)
    assert np.abs(cov - cov.T).max() <= sym_rtol * scale
    eigs = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    assert eigs.min() >= -psd_rtol * max(np.trace(cov), 1e-300)


def oracle_for(series, params, seq):
    """The joint-Gaussian oracle of a stack of one block, at the u_t of
    its belief record ``seq`` (the block's slice or the stack's)."""
    [n], [counts] = series.n, series.counts
    ss = dense_model(params, n)
    b_seq = np.ravel(seq.u) + n**2 * params.r
    return OracleRun(ss.G, ss.H, ss.Q, params.mu0, params.Sigma0, counts, b_seq)


class TestPredict:
    # the filter's predict step, read off the belief after one gap step
    def test_deterministic_propagation(self):
        params = prior([0.5, 0.1, -0.1], np.zeros((3, 3)), d=3)
        out = run(one_block([np.nan], n=10), params)
        np.testing.assert_allclose(out.final_mean, [0.5, 0.0, 0.1], atol=0)
        np.testing.assert_array_equal(out.final_cov, np.zeros((3, 3)))
        assert out.pred_count[0] == 5.0

    def test_orthogonal_transition_keeps_identity_cov(self):
        out = run(one_block([np.nan], n=10), prior(np.zeros(2), np.eye(2), d=2))
        np.testing.assert_allclose(out.final_cov, np.eye(2), atol=1e-15)

    def test_matches_naive_recomputation(self, rng):
        params = prior(rng.normal(size=4), random_psd(rng, 4), d=4, q_m=3e-3, q_s=2e-3)
        ss = dense_model(params, 10)
        out = run(one_block([np.nan], n=10), params)
        cov = ss.G @ params.Sigma0 @ ss.G.T + ss.Q
        np.testing.assert_allclose(out.final_mean, ss.G @ params.mu0, rtol=1e-12)
        np.testing.assert_allclose(out.final_cov, cov, rtol=1e-12)
        assert_valid_cov(out.final_cov)
        assert out.pred_count[0] == pytest.approx(ss.H @ ss.G @ params.mu0, rel=1e-12)
        np.testing.assert_allclose(out.PH[0], cov @ ss.H, rtol=1e-12)
        assert out.innov_var[0] == pytest.approx(ss.H @ cov @ ss.H + out.u[0], rel=1e-12)
        assert np.isnan(out.innov[0])


class TestUpdate:
    # the filter's update step on one observed count; these priors are
    # left unchanged by the transition's deterministic part
    def test_zero_residual_keeps_mean(self):
        params = prior([0.5, 0.0, 0.0], 0.01 * np.eye(3), d=3, q_m=1e-3, q_s=1e-3)
        out = run(one_block([5], n=10), params)  # H m = 10 * 0.5
        assert out.innov[0] == 0.0
        np.testing.assert_allclose(out.final_mean, params.mu0, atol=0)

    def test_infinite_noise_freezes_belief(self):
        # n^2 r = 1e12 swamps the prior variance
        params = prior([0.5, 0.1, 0.05], 0.01 * np.eye(3), d=3, q_m=1e-3, q_s=1e-3, r=1e10)
        out = run(one_block([9], n=10), params)
        assert np.linalg.norm(out.PH[0] / out.innov_var[0]) < 1e-9  # the gain
        ss = dense_model(params, 10)
        np.testing.assert_allclose(out.final_mean, ss.G @ params.mu0, rtol=1e-6)

    def test_zero_covariance_gives_zero_gain(self):
        out = run(one_block([9], n=10), prior([0.5, 0.0, 0.0], np.zeros((3, 3)), d=3))
        assert np.linalg.norm(out.PH[0]) == 0.0
        np.testing.assert_array_equal(out.final_mean, [0.5, 0.0, 0.0])

    def test_matches_joint_conditioning(self):
        # condition the 3-dimensional joint Gaussian of (x, w) on w by hand
        mean = np.array([0.5, 0.0])
        cov = np.diag([0.01, 0.01])
        params = prior(mean, cov, d=2)
        ss = dense_model(params, 10)
        out = run(one_block([7], n=10), params)
        assert out.pred_count[0] == ss.H @ mean
        u = binomial_obs_noise(float(ss.H @ mean), 10)
        assert out.u[0] == u
        S = ss.H @ cov @ ss.H + u
        gain_ref = cov @ ss.H / S
        mean_ref = mean + gain_ref * (7.0 - ss.H @ mean)
        cov_ref = cov - np.outer(gain_ref, ss.H @ cov)
        assert out.innov_var[0] == pytest.approx(S, rel=1e-12)
        np.testing.assert_allclose(out.final_mean, mean_ref, rtol=1e-10)
        np.testing.assert_allclose(out.final_cov, cov_ref, rtol=1e-10)


def assert_matches(seq, want, rtol=1e-8, atol=1e-12):
    """Each named output of ``seq`` matches ``want`` (NaN where it is NaN)."""
    for name, value in want.items():
        np.testing.assert_allclose(getattr(seq, name), value, rtol=rtol, atol=atol, err_msg=name)


class TestFilter:
    def test_empty_series(self):
        params = ModelParams(
            d=3, q_m=0.0, q_s=0.0, r=0.0, mu0=np.zeros(3), Sigma0=np.eye(3)
        )
        seq = run(one_block([], n=10), params)
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
        series = one_block([n // 2] * (6 * d), n=n)
        seq = run(series, params)
        ss = dense_model(params, n)
        for t in range(5 * d, seq.T + 1):
            assert seq.pred_count[t - 1] / n == pytest.approx(0.5, abs=0.01)
        assert float(ss.H @ seq.final_mean) / n == pytest.approx(0.5, abs=0.01)

    def test_matches_oracle(self, rng):
        params, series = random_instance(rng, d=3, T=6)
        seq = run(series, params)
        assert_matches(seq, oracle_for(series, params, seq).filter_record())

    def test_missing_observations_skip_update(self, rng):
        params, series = random_instance(rng, d=3, T=6)
        counts = series.counts[0].copy()
        counts[2] = np.nan
        gappy = one_block(counts, n=series.n[0])
        seq = run(gappy, params)
        # the gap's update is skipped: the next step predicts from its prediction
        # past it, as in a two-step forecast from the first two counts
        ss = dense_model(params, series.n[0])
        ahead = run(one_block(counts[:2], n=series.n[0]).with_gaps(2), params)
        np.testing.assert_allclose(seq.pred_count[2:4], ahead.pred_count[2:], rtol=1e-12)
        np.testing.assert_allclose(seq.PH[3] @ ss.H, ahead.PH[3] @ ss.H, rtol=1e-12)
        assert np.isnan(seq.innov[2]) and np.isnan(seq.pred_loglik[2])
        assert seq.innov_var[2] > 0  # the count's predictive variance is defined at a gap
        assert_matches(seq, oracle_for(gappy, params, seq).filter_record())

    def test_loglik_additivity(self, rng):
        params, series = random_instance(rng, d=3, T=6, r=1e-4)
        seq = run(series, params)
        oracle = oracle_for(series, params, seq)
        assert seq.total_loglik == pytest.approx(oracle.observations_logpdf(), rel=1e-9)

    def test_error_carries_step(self):
        # a wildly indefinite prior drives the innovation variance
        # negative; the filter must report the offending step and block
        params = prior([0.5, 0.0], -1e6 * np.eye(2), d=2)
        with pytest.raises(FilterError, match="block a:a: t=1") as excinfo:
            run(one_block([5], n=10), params)
        assert excinfo.value.t == 1
        assert excinfo.value.block == "a:a"

    def test_error_names_the_failing_block(self, rng):
        good, series = random_instance(rng, d=2, T=4)
        bad = prior(good.mu0, -1e6 * np.eye(2), d=2)
        pairs = [("a", "a"), ("a", "b"), ("b", "b")]
        blocks = concat(one_block(series.counts[0], n=series.n[0], pair=p) for p in pairs)
        with pytest.raises(FilterError) as excinfo:
            kalman.filter(blocks, stacked([good, bad, good]))
        assert (excinfo.value.block, excinfo.value.t) == ("a:b", 1)

    def test_zero_innovation_variance_fails_without_a_warning(self):
        # n = 1, a predicted count of 1/2 (u = 1/4) and H P H^T = -1/4 give
        # F_1 = 0 exactly; the steps after it divide by zero, but only the
        # FilterError may come out (pytest turns a RuntimeWarning into an error)
        params = prior([0.5, 0.0], -0.125 * np.eye(2), d=2)
        with pytest.raises(FilterError, match="block a:a: t=1: non-positive innovation variance 0.0"):
            run(one_block([1, 0, 1, 1], n=1), params)

    def test_error_names_the_first_bad_step_then_its_block(self, rng):
        # blocks a:a and b:b start from an indefinite prior, so all their
        # steps have F_t <= 0, gaps included; the gaps raise nothing, and
        # b:b, observed from t = 3, fails before a:a, observed from t = 5
        good, series = random_instance(rng, d=2, T=6)
        bad = prior(good.mu0, -1e6 * np.eye(2), d=2)
        params = stacked([bad, good, bad])
        pairs = [("a", "a"), ("a", "b"), ("b", "b")]
        gaps = concat(one_block([np.nan] * 6, n=series.n[0], pair=p) for p in pairs)
        assert (kalman.filter(gaps, params).innov_var[[0, 2]] <= 0).all()
        counts = np.repeat(series.counts, 3, axis=0)
        counts[0, :4] = counts[2, :2] = np.nan
        blocks = concat(one_block(c, n=series.n[0], pair=p) for c, p in zip(counts, pairs))
        with pytest.raises(FilterError, match="block b:b: t=3: non-positive innovation variance"):
            kalman.filter(blocks, params)


class TestSmoother:
    def test_runs_under_the_filters_state_space(self, rng):
        # the filter's record carries the model it ran under, its
        # parameters and possible-edge counts, so the smoother takes
        # nothing else
        params, series = random_instance(rng, d=3, T=5, r=1e-4)
        stack = stacked([params])
        seq = kalman.smooth(kalman.filter(series, stack))
        assert seq.params is stack
        np.testing.assert_array_equal(seq.n, series.n)
        np.testing.assert_array_equal(seq.measurement_var, series.n**2 * params.r)

    def test_final_step_equals_filtered(self, rng):
        params, series = random_instance(rng, d=3, T=5)
        seq = run(series, params, smoothed=True)
        ss = dense_model(params, series.n[0])
        assert seq.smoothed_count[4] == pytest.approx(ss.H @ seq.final_mean, rel=1e-12)
        assert seq.smoothed_count_var[4] == pytest.approx(ss.H @ seq.final_cov @ ss.H, rel=1e-10)

    def test_noiseless_data_recovers_trajectory(self):
        d, n, T = 4, 200, 12
        init = seasonal_state(d, 0.5, sine_profile(d, 0.1))
        truth = known_start(0.0, 0.0, 0.0, init)
        series, [states], _ = generate_block_series(truth, n=n, T=T, rng=_RoundingRng())
        params = truth[0]
        seq = run(series, params, smoothed=True)
        ss = dense_model(params, n)
        np.testing.assert_allclose(seq.smoothed_count, states @ ss.H, atol=1e-8 * n)
        np.testing.assert_allclose(seq.x0_mean, init, atol=1e-8)
        np.testing.assert_array_equal(seq.eta_sq, np.zeros((T, 2)))

    def test_empty_series_smooths_to_prior(self):
        params = ModelParams(
            d=3, q_m=0.0, q_s=0.0, r=0.0, mu0=np.array([0.5, 0.1, -0.1]), Sigma0=np.eye(3)
        )
        seq = run(one_block([], n=10), params, smoothed=True)
        np.testing.assert_array_equal(seq.x0_mean, params.mu0)
        np.testing.assert_array_equal(seq.x0_cov, params.Sigma0)
        assert seq.smoothed_count.shape == seq.quad.shape == (0,)

    def test_matches_oracle(self, rng):
        params, series = random_instance(rng, d=3, T=6, r=1e-4)
        seq = run(series, params, smoothed=True)
        oracle = oracle_for(series, params, seq)
        assert_matches(seq, oracle.filter_record())
        assert_matches(seq, oracle.smoothed_record())

    @pytest.mark.parametrize("case", ["regular", "singular_start", "gap"])
    def test_matches_per_step_rts_pinv_reference(self, rng, case):
        if case == "singular_start":
            # Sigma0 = 0 as in the detection criteria: P_{1|0} = Q and the
            # next few one-step-ahead covariances are singular
            d = 7
            truth = known_start(1e-7, 1e-7, 1e-4, seasonal_state(d, 0.5, sine_profile(d, 0.05)))
            series, _, _ = generate_block_series(truth, n=2000, T=40, rng=rng)
            params = truth[0]
        else:
            params, series = random_instance(rng, d=4, T=40, r=1e-4)
            if case == "gap":
                counts = series.counts[0].copy()
                counts[12:22] = np.nan
                series = one_block(counts, n=series.n[0])
        ss = dense_model(params, series.n[0])
        seq = run(series, params, smoothed=True)
        filtered = ref.run_filter(series.counts[0], ss, params.mu0, params.Sigma0)
        if case == "singular_start":
            assert np.linalg.matrix_rank(filtered.pred_cov[1]) < params.d
        mean, cov, lag_cov = _rts_pinv_reference(filtered, ss)
        want = smoothed_projections(mean, cov, lag_cov, series.counts[0], ss.G, ss.H)
        for name, value in want.items():
            got = getattr(seq, name)
            scale = np.nanmax(np.abs(value))
            assert np.nanmax(np.abs(got - value)) <= 1e-10 * scale, name

    def test_singular_start_with_gap_matches_oracle(self, rng):
        params, series = random_instance(rng, d=3, T=12, r=1e-4)
        params = ModelParams(
            d=3, q_m=params.q_m, q_s=params.q_s, r=params.r,
            mu0=params.mu0, Sigma0=np.zeros((3, 3)),
        )
        counts = series.counts[0].copy()
        counts[3:7] = np.nan
        series = one_block(counts, n=series.n[0])
        seq = run(series, params, smoothed=True)
        oracle = oracle_for(series, params, seq)
        assert_matches(seq, oracle.filter_record())
        assert_matches(seq, oracle.smoothed_record())

    def test_smoothing_never_inflates_covariance(self, rng):
        params, series = random_instance(rng, d=4, T=8)
        seq = run(series, params, smoothed=True)
        ss = dense_model(params, series.n[0])
        predicted = seq.PH @ ss.H
        assert np.all(seq.smoothed_count_var <= predicted * (1 + 1e-12))
        assert np.all(seq.smoothed_count_var >= -1e-12 * predicted)
        gap = params.Sigma0 - seq.x0_cov
        assert np.linalg.eigvalsh(gap).min() >= -1e-8 * np.trace(params.Sigma0)


def _rts_pinv_reference(seq, ss):
    """Rauch-Tung-Striebel smoother, one pseudo-inverse per step, over the
    per-block reference filter's record: smoothed means and covariances
    for t = 0..T and lag-one covariances Cov(x_t, x_{t-1}) for t = 1..T."""
    T = len(seq.pred_mean)
    mean = [seq.init_mean] + list(seq.filt_mean)
    cov = [seq.init_cov] + list(seq.filt_cov)
    gains = [None] * T
    for t in range(T - 1, -1, -1):
        J = cov[t] @ ss.G.T @ np.linalg.pinv(seq.pred_cov[t], rcond=1e-12, hermitian=True)
        mean[t] = mean[t] + J @ (mean[t + 1] - seq.pred_mean[t])
        cov[t] = cov[t] + J @ (cov[t + 1] - seq.pred_cov[t]) @ J.T
        gains[t] = J
    lag = [cov[t] @ gains[t - 1].T for t in range(1, T + 1)]
    return np.array(mean), np.array(cov), np.array(lag)


class _RoundingRng:
    """Noise-free stand-in: zero Gaussian draws, expectation counts."""

    def standard_normal(self, size):
        return np.zeros(size)

    def binomial(self, n, p):
        return np.round(n * p)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 4))
def test_filter_invariants(seed, d):
    rng = np.random.default_rng(seed)
    params, series = random_instance(rng, d=d, T=6)
    seq = run(series, params)
    ss = dense_model(params, series.n[0])
    # the count's predictive variance is its state part plus b_t
    assert np.all(seq.innov_var >= seq.u + ss.measurement_var)
    # the last update never adds uncertainty
    assert ss.H @ seq.final_cov @ ss.H <= seq.PH[-1] @ ss.H + 1e-12
    assert_valid_cov(seq.final_cov)


def one_block_forecast(mean, cov, d, q_m=0.0, q_s=0.0, r=0.0, n=100, horizon=1):
    """The count forecast from the belief (mean, cov): the filter over
    ``horizon`` gaps from that prior."""
    params = prior(mean, cov, d, q_m=q_m, q_s=q_s, r=r)
    seq = run(one_block(np.full(horizon, np.nan), n=n), params)
    ss = dense_model(params, n)
    return SimpleNamespace(
        count_mean=seq.pred_count, state_var=seq.PH @ ss.H, count_noise=seq.u,
        measurement_var=ss.measurement_var, total_var=seq.innov_var,
    )


class TestForecast:
    def test_no_state_uncertainty_leaves_count_noise_only(self):
        fc = one_block_forecast([0.5, 0.1, -0.1], np.zeros((3, 3)), d=3, horizon=6)
        np.testing.assert_array_equal(fc.state_var, np.zeros(6))
        np.testing.assert_array_equal(fc.total_var, fc.count_noise)

    def test_period_aligned_variance_growth_is_affine(self):
        d = 4
        fc = one_block_forecast(
            [0.5, 0.05, -0.02, 0.01], 1e-4 * np.eye(d), d=d, q_m=1e-5, q_s=2e-5, horizon=8 * d
        )
        aligned = fc.state_var[d - 1 :: d]
        increments = np.diff(aligned)
        assert np.all(np.abs(increments - increments[0]) <= 1e-6 * increments[0])

    def test_period_horizon_repeats_pattern(self):
        d = 5
        state = np.array([0.5, 0.08, -0.03, 0.01, -0.04])
        fc = one_block_forecast(state, np.zeros((d, d)), d=d, horizon=2 * d)
        np.testing.assert_allclose(fc.count_mean[:d], fc.count_mean[d:], atol=1e-12)

    def test_measurement_contribution_constant(self):
        fc = one_block_forecast(
            [0.5, 0.0, 0.0], 1e-4 * np.eye(3), d=3, q_m=1e-5, q_s=1e-5, r=1e-3, horizon=9
        )
        assert fc.measurement_var == 100**2 * 1e-3
        np.testing.assert_array_equal(
            fc.total_var - fc.state_var - fc.count_noise,
            np.full(9, fc.measurement_var),
        )

    def test_blocks_forecast_independently(self, rng):
        # a stack's forecasts are its blocks' one-block forecasts
        d, ns = 4, np.array([28.0, 64.0, 2000.0])
        means = np.column_stack((rng.uniform(0.3, 0.7, 3), rng.normal(0, 0.05, (3, d - 1))))
        covs = np.array([random_psd(rng, d) for _ in ns])
        q_m, q_s, r = rng.uniform(1e-5, 1e-3, (3, 3))
        gaps = concat(one_block(np.full(9, np.nan), n=n, pair=("a", f"b{b}")) for b, n in enumerate(ns))
        seq = kalman.filter(gaps, ParamStack(d, q_m, q_s, r, means, covs))
        for b, n in enumerate(ns):
            one = one_block_forecast(means[b], covs[b], d, q_m[b], q_s[b], r[b], n=n, horizon=9)
            np.testing.assert_allclose(seq.pred_count[b], one.count_mean, rtol=1e-12)
            np.testing.assert_allclose(seq.innov_var[b], one.total_var, rtol=1e-12)


class TestPerBlockReference:
    """The batched filter and smoother against the per-block reference
    recursions, block by block: the filter's record, and the smoother's
    outputs against projections of the reference's smoothed moments."""

    def mixed_stack(self, rng):
        d, T = 7, 40
        blocks, params = [], []
        for i, n in enumerate((28, 64, 2000, 64)):
            truth = known_start(1e-5, 1e-5, 1e-4, seasonal_state(d, 0.5, sine_profile(d, 0.05)))
            series, _, _ = generate_block_series(truth, n=n, T=T, rng=rng, pairs=[("a", f"b{i}")])
            counts = series.counts[0].copy()
            counts[12:22] = np.nan  # a 10-step gap in every block (missing-observation)
            if i == 3:
                counts[:] = np.nan  # an all-gap block
            blocks.append(one_block(counts, n=n, pair=series.pairs[0]))
            # block 2 starts from a singular Sigma0 = 0
            Sigma0 = np.zeros((d, d)) if i == 2 else random_psd(rng, d, scale=1e-4)
            params.append(replace(truth[0], Sigma0=Sigma0))
        return concat(blocks), params

    def test_filter_smoother_and_lag_moments_match(self, rng):
        stack, params = self.mixed_stack(rng)
        ps = stacked(params)
        seq = kalman.smooth(kalman.filter(stack, ps))
        for b, (counts, n, p) in enumerate(zip(stack.counts, stack.n, params)):
            ss = dense_model(p, n)
            want = ref.smooth(ref.run_filter(counts, ss, p.mu0, p.Sigma0), ss)
            got = block(seq, b)
            pred_var = np.einsum("i,tij,j->t", ss.H, want.pred_cov, ss.H)
            expected = {
                "pred_count": want.pred_mean @ ss.H,
                "PH": want.pred_cov @ ss.H,
                "u": want.u,
                "innov": want.innov,
                "innov_var": pred_var + want.u + ss.measurement_var,
                "final_mean": want.filt_mean[-1],
                "final_cov": want.filt_cov[-1],
                **smoothed_projections(
                    want.smoothed_mean, want.smoothed_cov, want.smoothed_lag_cov, counts, ss.G, ss.H
                ),
            }
            # the reference's eta_sq is a difference of state covariances,
            # which can be 100 times larger, so those set its scale
            scales = {"eta_sq": np.abs(want.smoothed_cov).max()}
            for name, w in expected.items():
                g = getattr(got, name)
                np.testing.assert_array_equal(np.isnan(g), np.isnan(w), err_msg=f"{b} {name}")
                scale = scales.get(name, np.nanmax(np.abs(w), initial=1e-300))
                assert np.nanmax(np.abs(g - w), initial=0.0) <= 1e-12 * scale, (b, name)
            assert got.total_loglik == pytest.approx(want.total_loglik, rel=1e-12, abs=1e-12)

    def test_gap_forecast_matches(self, rng):
        # a forecast is the filter over trailing gaps: at every gap step,
        # mid-series or appended, the count's mean and variance are the
        # reference's predicted moments
        d, T = 7, 30
        blocks, params = [], []
        for i, n in enumerate((28, 64, 2000)):
            mu0 = seasonal_state(d, 0.4 + 0.1 * i, sine_profile(d, 0.05))
            truth = known_start(1e-5, 2e-5, 1e-4, mu0)
            series, _, _ = generate_block_series(truth, n=n, T=T, rng=rng, pairs=[("a", f"b{i}")])
            counts = series.counts[0].copy()
            counts[10:14] = np.nan
            blocks.append(one_block(counts, n=n, pair=series.pairs[0]))
            Sigma0 = random_psd(rng, d, scale=1e-4)
            params.append(replace(truth[0], Sigma0=Sigma0))
        stack = concat(blocks).with_gaps(2 * d)
        seq = kalman.filter(stack, stacked(params))
        gaps = np.isnan(stack.counts)
        assert gaps.sum(axis=1).tolist() == [4 + 2 * d] * 3
        for b, (counts, n, p) in enumerate(zip(stack.counts, stack.n, params)):
            ss = dense_model(p, n)
            want = ref.run_filter(counts, ss, p.mu0, p.Sigma0)
            state_var = np.einsum("i,tij,j->t", ss.H, want.pred_cov, ss.H)
            pairs = {
                "pred_count": (seq.pred_count[b], want.pred_mean @ ss.H),
                "H p_t": (seq.PH[b] @ ss.H, state_var),
                "u": (seq.u[b], want.u),
                "innov_var": (seq.innov_var[b], state_var + want.u + ss.measurement_var),
            }
            for name, (got, expected) in pairs.items():
                np.testing.assert_allclose(
                    got[gaps[b]], expected[gaps[b]], rtol=1e-12, err_msg=f"{b} {name}"
                )
