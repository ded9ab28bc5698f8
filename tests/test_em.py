import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from sdsbm import kalman
from sdsbm.em import (
    R_MAX,
    EmConfig,
    EmError,
    SufficientStats,
    default_init,
    e_step,
    em_fit,
    m_step_initial,
    m_step_q,
    m_step_r,
    r_objective,
)
from sdsbm.generator import (
    GenParams,
    generate_block_series,
    seasonal_state,
    sine_profile,
)
from sdsbm.ssm import ModelParams, build_state_space

from conftest import make_series
from gaussian_oracle import OracleRun


def synthetic_block(seed, d=7, T=120, n=500, q_m=1e-6, q_s=1e-6, r=0.0, bias=0.5, amp=0.08):
    rng = np.random.default_rng(seed)
    init = seasonal_state(d, bias, sine_profile(d, amp))
    gen = GenParams(d=d, q_m=q_m, q_s=q_s, r=r, init=init)
    series, trace = generate_block_series(gen, n=n, T=T, rng=rng)
    return series, trace, gen


def small_params(d=3, q_m=4e-3, q_s=2e-3, r=0.0, seed=1):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d))
    return ModelParams(
        d=d,
        q_m=q_m,
        q_s=q_s,
        r=r,
        mu0=np.concatenate(([0.5], rng.normal(0, 0.05, d - 1))),
        Sigma0=0.01 * (A @ A.T + d * np.eye(d)),
    )


def numeric_q_argmax(stats: SufficientStats, d: int) -> tuple[float, float]:
    """Independent check of the closed-form process-variance update:
    numerically maximize the expected transition log-likelihood term of
    each noisy coordinate, using the per-step transition-residual moment
    E[(x_t - G x_{t-1})(x_t - G x_{t-1})^T]."""
    G = build_state_space(d, 1, 0.0, 0.0, 0.0).G
    resid = np.array(
        [
            stats.Exx[t]
            - stats.Exx_lag[t - 1] @ G.T
            - G @ stats.Exx_lag[t - 1].T
            + G @ stats.Exx[t - 1] @ G.T
            for t in range(1, stats.T + 1)
        ]
    )
    out = []
    for k in (0, 1):
        moments = resid[:, k, k]

        def neg_loglik(log_q, m=moments):
            q = np.exp(log_q)
            return -np.sum(-0.5 * np.log(2 * np.pi * q) - m / (2 * q))

        res = minimize_scalar(
            neg_loglik,
            bounds=(np.log(1e-12), np.log(1.0)),
            method="bounded",
            options={"xatol": 1e-12},
        )
        out.append(float(np.exp(res.x)))
    return out[0], out[1]


class TestEStep:
    def test_degenerate_params_give_exact_outer_products(self):
        d, n, T = 3, 100, 8
        init = seasonal_state(d, 0.5, sine_profile(d, 0.1))
        gen = GenParams(d=d, q_m=0.0, q_s=0.0, r=0.0, init=init)

        class _Rng:
            def normal(self, loc, scale):
                return loc

            def binomial(self, n_, p):
                return round(n_ * p)

        series, _ = generate_block_series(gen, n=n, T=T, rng=_Rng())
        params = ModelParams(
            d=d, q_m=0.0, q_s=0.0, r=0.0,
            mu0=init, Sigma0=np.zeros((d, d)),
        )
        stats, _, _ = e_step(series, params)
        for t in range(T + 1):
            np.testing.assert_array_equal(
                stats.Exx[t], np.outer(stats.Ex[t], stats.Ex[t])
            )

    def test_single_step_reduces_to_filtered_moments(self, rng):
        params = small_params()
        series = make_series([55], n=100)
        stats, _, _ = e_step(series, params)
        ss = params.state_space(series.n)
        seq = kalman.run_filter(series.counts, ss, params.mu0, params.Sigma0)
        np.testing.assert_allclose(stats.Ex[1], seq.filt_mean[0], rtol=1e-12)
        np.testing.assert_allclose(
            stats.Exx[1],
            seq.filt_cov[0] + np.outer(seq.filt_mean[0], seq.filt_mean[0]),
            rtol=1e-12,
        )

    def test_stats_match_joint_gaussian_oracle(self, rng):
        params = small_params(seed=3)
        counts = rng.integers(30, 70, size=6).astype(float)
        series = make_series(counts, n=100)
        stats, loglik, u = e_step(series, params)
        ss = params.state_space(series.n)
        oracle = OracleRun(
            ss.G, ss.H, ss.Q, params.mu0, params.Sigma0, series.counts, u + series.n**2 * params.r
        )
        for t in range(7):
            mean_ref, cov_ref = oracle.smoothed(t)
            np.testing.assert_allclose(stats.Ex[t], mean_ref, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(
                stats.Exx[t],
                cov_ref + np.outer(mean_ref, mean_ref),
                rtol=1e-8,
                atol=1e-12,
            )
        for t in range(1, 7):
            np.testing.assert_allclose(
                stats.Exx_lag[t - 1], oracle.smoothed_cross(t), rtol=1e-8, atol=1e-12
            )
        assert loglik == pytest.approx(oracle.observations_logpdf(), rel=1e-9)


class TestMStepInitial:
    def test_assignment_from_smoothed_start(self, rng):
        params = small_params(seed=5)
        series = make_series(rng.integers(30, 70, size=5), n=100)
        stats, _, _ = e_step(series, params)
        mu0, Sigma0 = m_step_initial(stats)
        np.testing.assert_array_equal(mu0, stats.Ex[0, :3])
        ref = stats.Exx[0, :3, :3] - np.outer(mu0, mu0)
        np.testing.assert_allclose(Sigma0, 0.5 * (ref + ref.T), atol=1e-15)

    def test_idempotent_given_fixed_stats(self, rng):
        params = small_params(seed=6)
        series = make_series(rng.integers(30, 70, size=5), n=100)
        stats, _, _ = e_step(series, params)
        first = m_step_initial(stats)
        second = m_step_initial(stats)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_recovers_generator_bias(self):
        series, trace, gen = synthetic_block(seed=17, T=160, n=1000, q_m=1e-6, q_s=1e-6)
        init = default_init(series, gen.d)
        params, _ = em_fit(series, init, EmConfig(max_iter=60, tol=1e-9))
        sd = np.sqrt(max(params.Sigma0[0, 0], 1e-12))
        assert abs(params.mu0[0] - gen.init[0]) <= 3 * max(sd, 1e-3)


def r_step_input(quad, u, n):
    """Zero counts and zero means, so m_step_r's quad_t is n^2 Exx[t, 0, 0]."""
    T = len(quad)
    stats = SufficientStats(
        Ex=np.zeros((T + 1, 2)), Exx=np.zeros((T + 1, 2, 2)), Exx_lag=np.zeros((T, 2, 2))
    )
    stats.Exx[1:, 0, 0] = np.asarray(quad) / n**2
    return stats, make_series(np.zeros(T), n=n), n * n * stats.Exx[1:, 0, 0]


def bounded_argmax(f, lo, hi):
    res = minimize_scalar(
        lambda x: -f(x), bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
    )
    return res.x


class TestMStepR:
    def test_boundary_solution_when_binomial_noise_explains_all(self):
        # quad_t == u_t makes the objective decreasing in r
        n, T = 100, 6
        u = np.full(T, 25.0)
        series = make_series([50] * T, n=n)
        D = 5
        stats = SufficientStats(
            Ex=np.zeros((T + 1, D)),
            Exx=np.zeros((T + 1, D, D)),
            Exx_lag=np.zeros((T, D, D)),
        )
        # choose moments so quad_t = w^2 - 2 w Hx + x'H'Hx = u_t
        # with Ex = 0: quad_t = w^2 + H Exx H'; force H Exx H' = u - w^2
        for t in range(1, T + 1):
            stats.Exx[t, 0, 0] = (u[t - 1] - 50.0**2) / n**2
        assert m_step_r(stats, series, u, n) == 0.0

    def test_single_step_closed_form(self):
        # with u = 0 and one term the maximizer is r = quad / n^2
        n, v = 200, 2e-3
        series = make_series([0], n=n)
        D = 5
        stats = SufficientStats(
            Ex=np.zeros((2, D)), Exx=np.zeros((2, D, D)), Exx_lag=np.zeros((1, D, D))
        )
        stats.Exx[1, 0, 0] = v  # H Exx H^T = n^2 v
        r_hat = m_step_r(stats, series, np.array([0.0]), n)
        assert r_hat == pytest.approx(v, rel=1e-8)

    def test_never_exceeds_density_variance_cap(self):
        n = 10
        series = make_series([0, 10, 0, 10, 0, 10], n=n)
        stats = SufficientStats(
            Ex=np.zeros((7, 12)), Exx=np.zeros((7, 12, 12)), Exx_lag=np.zeros((6, 12, 12))
        )
        r_hat = m_step_r(stats, series, np.full(6, 1e-6), n)
        assert 0.0 <= r_hat <= 0.25

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_interior_optimum_matches_bounded_search(self, seed):
        # quad_t scattered around u_t + n^2 r*: one interior maximum near r*
        rng = np.random.default_rng(seed)
        n, T = int(rng.integers(6, 2001)), int(rng.integers(5, 201))
        p = rng.uniform(0.02, 0.98, T)
        u = n * p * (1 - p)
        r_star = math.exp(rng.uniform(math.log(0.1), math.log(10.0))) * u.mean() / n**2
        assume(r_star <= 0.1)
        stats, series, quad = r_step_input((u + n * n * r_star) * np.exp(rng.normal(0, 0.3, T)), u, n)
        r = m_step_r(stats, series, u, n)

        # scipy's bounded search on log r stops at sqrt(eps) * |log r|, so a
        # second search, centred on the first and written without
        # cancellation, refines it to well below the tolerance checked here
        lo = math.log(1e-12)
        r1 = math.exp(bounded_argmax(lambda x: r_objective(math.exp(x), quad, u, n), lo, 0.0))
        v1 = u + n * n * r1

        def gain_over_r1(x):
            dv = n * n * r1 * math.expm1(x)
            return np.sum(-0.5 * np.log1p(dv / v1) + 0.5 * quad * dv / (v1 * (v1 + dv)))

        r_ref = r1 * math.exp(bounded_argmax(gain_over_r1, lo - math.log(r1), -math.log(r1)))
        assert r == pytest.approx(r_ref, rel=1e-8)
        v = u + n * n * r
        pull_up, pull_down = np.sum(quad / v**2), np.sum(1.0 / v)
        assert abs(pull_up - pull_down) <= 1e-10 * (pull_up + pull_down)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=2000),
        st.lists(
            st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)), min_size=1, max_size=40
        ),
    )
    def test_never_scores_below_the_scan(self, n, terms):
        quad, u = map(np.array, zip(*terms))
        stats, series, quad = r_step_input(quad, u, n)
        r = m_step_r(stats, series, u, n)
        assert 0.0 <= r <= R_MAX
        feasible_grid = np.minimum(np.geomspace(1e-12, 1.0, 30), R_MAX)
        scan_best = np.max(r_objective(feasible_grid, quad, u, n))
        score = r_objective(r, quad, u, n)
        assert score >= scan_best - 1e-12 * abs(scan_best)

    def test_vectorised_objective_matches_scalar_calls(self):
        rng = np.random.default_rng(5)
        quad, u = rng.uniform(0, 50, 30), rng.uniform(0, 25, 30)
        rs = np.array([0.0, 1e-9, 1e-4, 0.2])
        values = r_objective(rs, quad, u, 40)
        assert values.shape == (4,)
        assert values.tolist() == [r_objective(float(r), quad, u, 40) for r in rs]
        assert isinstance(r_objective(1e-4, quad, u, 40), float)
        assert r_objective(0.0, quad, np.zeros(30), 40) == -math.inf

    def test_full_em_recovers_true_r(self):
        series, _, gen = synthetic_block(
            seed=23, d=7, T=280, n=2000, q_m=1e-7, q_s=1e-7, r=1e-3
        )
        init = default_init(series, gen.d)
        params, _ = em_fit(series, init, EmConfig(max_iter=80, tol=1e-9))
        assert 1.0 / 3.0 <= params.r / 1e-3 <= 3.0  # within a factor of 3


class TestMStepQ:
    def test_no_innovation_means_zero_variances(self):
        # a noiseless trajectory x_t = G x_{t-1} with exact moments: the
        # transition residual vanishes, so both variances are zero
        d, T = 3, 4
        G = build_state_space(d, 1, 0.0, 0.0, 0.0).G
        Ex = [np.array([0.5, 0.1, -0.1])]
        for _ in range(T):
            Ex.append(G @ Ex[-1])
        Ex = np.array(Ex)
        stats = SufficientStats(
            Ex=Ex,
            Exx=np.einsum("ti,tj->tij", Ex, Ex),
            Exx_lag=np.einsum("ti,tj->tij", Ex[1:], Ex[:-1]),
        )
        q_m, q_s = m_step_q(stats, d=d)
        assert q_m == pytest.approx(0.0, abs=1e-14)
        assert q_s == pytest.approx(0.0, abs=1e-14)

    def test_hand_built_projection(self):
        # zero-mean prior moments of the model itself, built by hand:
        # Exx_t = P_t = G P_{t-1} G^T + Q and E[x_t x_{t-1}^T] = G P_{t-1},
        # so the transition residual moment is exactly Q at every step
        d, T, v_m, v_s = 3, 8, 3e-4, 7e-5
        G = build_state_space(d, 1, 0.0, 0.0, 0.0).G
        Q = np.diag([v_m, v_s, 0.0])
        Exx = [np.zeros((d, d))]
        for _ in range(T):
            Exx.append(G @ Exx[-1] @ G.T + Q)
        Exx = np.array(Exx)
        stats = SufficientStats(Ex=np.zeros((T + 1, d)), Exx=Exx, Exx_lag=G @ Exx[:-1])
        q_m, q_s = m_step_q(stats, d=d)
        assert q_m == pytest.approx(v_m, rel=1e-12)
        assert q_s == pytest.approx(v_s, rel=1e-12)

    def test_matches_numerical_maximization(self, rng):
        for seed in (1, 2):
            params = small_params(seed=seed)
            counts = rng.integers(30, 70, size=7).astype(float)
            series = make_series(counts, n=100)
            stats, _, _ = e_step(series, params)
            q_m, q_s = m_step_q(stats, d=params.d)
            ref_m, ref_s = numeric_q_argmax(stats, params.d)
            assert q_m == pytest.approx(ref_m, rel=1e-6)
            assert q_s == pytest.approx(ref_s, rel=1e-6)

    def test_recovers_true_process_variances(self):
        series, _, gen = synthetic_block(
            seed=31, d=7, T=280, n=2000, q_m=1e-6, q_s=1e-6, r=0.0
        )
        init = default_init(series, gen.d)
        params, _ = em_fit(
            series, init, EmConfig(max_iter=80, tol=1e-9, fix_r_to_zero=True)
        )
        assert 1.0 / 3.0 <= params.q_m / 1e-6 <= 3.0
        assert 1.0 / 3.0 <= params.q_s / 1e-6 <= 3.0


class TestEmFit:
    def test_single_iteration_trace(self):
        series, _, gen = synthetic_block(seed=41, T=40)
        init = default_init(series, gen.d)
        params, trace = em_fit(series, init, EmConfig(max_iter=1))
        assert trace.iterations == 1
        assert len(trace.loglik_per_iter) == 1
        assert len(trace.params_per_iter) == 1
        assert not trace.converged

    def test_loglik_never_decreases(self):
        for seed in range(5):
            series, _, gen = synthetic_block(seed=100 + seed, T=80, n=400)
            init = default_init(series, gen.d)
            _, trace = em_fit(series, init, EmConfig(max_iter=25, tol=1e-12))
            ll = np.array(trace.loglik_per_iter)
            assert np.all(np.diff(ll) >= -1e-8), f"seed {seed}: {np.diff(ll).min()}"

    def test_refit_converges_immediately(self):
        series, _, gen = synthetic_block(seed=57, T=100, n=200, q_m=5e-4, q_s=5e-4)
        init = default_init(series, gen.d)
        params, first = em_fit(series, init, EmConfig(max_iter=400, tol=1e-6))
        assert first.converged
        _, trace = em_fit(series, params, EmConfig(max_iter=60, tol=1e-6))
        assert trace.converged
        assert trace.iterations <= 2

    def test_fix_r_pins_measurement_variance(self):
        series, _, gen = synthetic_block(seed=61, T=60, r=1e-3)
        init = default_init(series, gen.d)
        params, trace = em_fit(series, init, EmConfig(max_iter=10, fix_r_to_zero=True))
        assert params.r == 0.0
        assert all(p.r == 0.0 for p in trace.params_per_iter)

    def test_fit_with_missing_observations(self):
        # gaps skip the update step and drop out of the r-objective but
        # the fit still runs and improves monotonically
        series, _, gen = synthetic_block(seed=83, T=80, n=400, q_m=1e-4, q_s=1e-4)
        counts = series.counts.copy()
        counts[[7, 8, 31]] = np.nan
        gappy = make_series(counts, n=series.n)
        params, trace = em_fit(
            gappy, default_init(gappy, gen.d), EmConfig(max_iter=20, tol=1e-10)
        )
        ll = np.array(trace.loglik_per_iter)
        assert np.all(np.diff(ll) >= -1e-8)
        assert np.isfinite(params.q_m) and np.isfinite(params.r)

    def test_smallest_period_fits(self):
        # d=2 exercises the smallest state end to end
        rng = np.random.default_rng(3)
        init = seasonal_state(2, 0.5, np.array([0.06, -0.06]))
        gen = GenParams(d=2, q_m=1e-4, q_s=1e-4, r=0.0, init=init)
        series, _ = generate_block_series(gen, n=300, T=60, rng=rng)
        params, trace = em_fit(
            series, default_init(series, 2), EmConfig(max_iter=30, tol=1e-10)
        )
        assert params.d == 2
        ll = np.array(trace.loglik_per_iter)
        assert np.all(np.diff(ll) >= -1e-8)

    def test_large_period_smoke(self):
        # minute-scale seasonality: just confirm the recursions stay
        # healthy at d = 60
        d = 60
        init = seasonal_state(d, 0.5, sine_profile(d, 0.1))
        gen = GenParams(d=d, q_m=1e-6, q_s=1e-7, r=1e-4, init=init)
        series, _ = generate_block_series(
            gen, n=2000, T=3 * d, rng=np.random.default_rng(9)
        )
        params, trace = em_fit(
            series, default_init(series, d), EmConfig(max_iter=4, tol=1e-9)
        )
        assert np.all(np.diff(trace.loglik_per_iter) >= -1e-8)
        assert params.mu0.shape == (d,)

    def test_learned_q_is_exactly_diagonal(self):
        series, _, gen = synthetic_block(seed=67, T=50)
        init = default_init(series, gen.d)
        params, _ = em_fit(series, init, EmConfig(max_iter=10))
        ss = params.state_space(series.n)
        expected = np.zeros((gen.d, gen.d))
        expected[0, 0], expected[1, 1] = params.q_m, params.q_s
        np.testing.assert_array_equal(ss.Q, expected)

    def test_r_step_weakly_improves_objective(self):
        # evaluate the r-objective before and after each M-step
        series, _, gen = synthetic_block(seed=71, T=80, n=400, r=5e-4)
        params = default_init(series, gen.d)
        n = series.n
        for _ in range(8):
            stats, _, u = e_step(series, params)
            D = stats.dim
            H = np.zeros(D)
            H[0] = H[1] = n
            w = series.counts
            hx = stats.Ex[1:] @ H
            quad = w * w - 2 * w * hx + np.einsum("i,tij,j->t", H, stats.Exx[1:], H)
            r_new = m_step_r(stats, series, u, n)
            assert r_objective(r_new, quad, u, n) >= r_objective(params.r, quad, u, n) - 1e-9
            mu0, Sigma0 = m_step_initial(stats)
            q_m, q_s = m_step_q(stats, gen.d)
            params = ModelParams(d=gen.d, q_m=q_m, q_s=q_s, r=r_new, mu0=mu0, Sigma0=Sigma0)

    @pytest.mark.filterwarnings("ignore::sdsbm.ssm.NormalApproximationWarning")
    def test_estep_failure_carries_iteration(self):
        series = make_series([5, 5], n=10)
        bad = ModelParams(
            d=2, q_m=0.0, q_s=0.0, r=0.0, mu0=np.zeros(2), Sigma0=-1e6 * np.eye(2)
        )
        with pytest.raises(EmError, match="iteration 0") as excinfo:
            em_fit(series, bad, EmConfig(max_iter=3))
        assert excinfo.value.iteration == 0


class TestDefaultInit:
    def test_phase_deviations_seed_offsets(self):
        d, n = 4, 100
        counts = np.array([60.0, 40.0, 50.0, 50.0, 60.0, 40.0, 50.0, 50.0])
        series = make_series(counts, n=n)
        params = default_init(series, d)
        bias = counts[:d].mean() / n
        assert params.mu0[0] == pytest.approx(bias)
        # offsets (s_0, s_-1, s_-2) estimate phases (d, d-1, d-2) = t 4, 3, 2
        assert params.mu0[1] == pytest.approx(counts[3] / n - bias)
        assert params.mu0[2] == pytest.approx(counts[2] / n - bias)
        assert params.mu0[3] == pytest.approx(counts[1] / n - bias)

    def test_flat_defaults_flag(self):
        series = make_series([50, 60, 40], n=100)
        params = default_init(series, 3, flat_defaults=True)
        assert params.q_m == params.q_s == params.r == 1.0
        np.testing.assert_array_equal(params.Sigma0, np.eye(3))

    def test_data_scaled_variances(self):
        counts = np.array([50.0, 60.0, 40.0, 55.0, 45.0])
        series = make_series(counts, n=100)
        params = default_init(series, 3)
        var_y = (counts / 100).var()
        assert params.q_m == pytest.approx(var_y / 5)
        assert params.r == pytest.approx(var_y / 10)
