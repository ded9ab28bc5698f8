import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import per_block_reference as ref
from sdsbm import kalman
from sdsbm.em import (
    Q_FLOOR,
    R_MAX,
    EmConfig,
    EmError,
    default_init,
    em_fit,
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
from sdsbm.graph_model import BlockStack
from sdsbm.ssm import ModelParams, ParamStack, build_state_space

from conftest import concat, one_block
from gaussian_oracle import OracleRun
from test_kalman import oracle_for, random_instance


def fit_one(series, init, config):
    """``em_fit`` on a stack of one block (``init`` a ParamStack or one
    ModelParams): its parameters and trace."""
    if isinstance(init, ModelParams):
        init = ParamStack.of([init])
    [params], [trace] = em_fit(series, init, config)
    return params, trace


def r_step(quad, u, n):
    """``m_step_r`` on one block's expected squared observation disturbances."""
    return float(m_step_r(np.asarray(quad, float)[None], np.asarray(u, float)[None], np.array([n], float))[0])


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


def numeric_q_argmax(oracle: OracleRun) -> tuple[float, float]:
    """Independent check of the closed-form process-variance update:
    numerically maximize the expected transition log-likelihood term of
    each noisy coordinate, using the per-step transition-residual moment
    E[(x_t - G x_{t-1})(x_t - G x_{t-1})^T] of the oracle's smoothed
    moments."""
    G = oracle.G

    def second_moment(t):
        mean, cov = oracle.smoothed(t)
        return cov + np.outer(mean, mean)

    resid = []
    for t in range(1, oracle.T + 1):
        lag = oracle.smoothed_cross(t)
        resid.append(second_moment(t) - lag @ G.T - G @ lag.T + G @ second_moment(t - 1) @ G.T)
    resid = np.array(resid)
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
        # no noise anywhere: every smoothed variance is exactly zero
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
        seq = kalman.smooth(kalman.filter(series, ParamStack.of([params])))
        np.testing.assert_array_equal(seq.smoothed_count_var, np.zeros((1, T)))
        np.testing.assert_array_equal(seq.x0_cov, np.zeros((1, d, d)))
        np.testing.assert_array_equal(seq.eta_sq, np.zeros((1, T, 2)))
        np.testing.assert_array_equal(seq.quad, (series.counts - seq.smoothed_count) ** 2)

    def test_single_step_reduces_to_filtered_moments(self, rng):
        params = small_params()
        series, stack = one_block([55], n=100), ParamStack.of([params])
        seq = kalman.smooth(kalman.filter(series, stack))
        H = params.state_space(100).H
        filtered = kalman.filter(series, stack)
        assert seq.smoothed_count[0, 0] == pytest.approx(H @ filtered.final_mean[0], rel=1e-12)
        assert seq.smoothed_count_var[0, 0] == pytest.approx(H @ filtered.final_cov[0] @ H, rel=1e-10)

    def test_stats_match_joint_gaussian_oracle(self, rng):
        params = small_params(seed=3)
        series = one_block(rng.integers(30, 70, size=6), n=100)
        seq = kalman.smooth(kalman.filter(series, ParamStack.of([params])))
        oracle = oracle_for(series, params, seq)
        for name, want in {**oracle.filter_record(), **oracle.smoothed_record()}.items():
            np.testing.assert_allclose(getattr(seq, name)[0], want, rtol=1e-8, atol=1e-12, err_msg=name)
        assert seq.total_loglik[0] == pytest.approx(oracle.observations_logpdf(), rel=1e-9)


class TestMStepInitial:
    def test_assignment_from_smoothed_start(self, rng):
        params = small_params(seed=5)
        series = one_block(rng.integers(30, 70, size=5), n=100)
        seq = kalman.smooth(kalman.filter(series, ParamStack.of([params])))
        [mu0], [Sigma0] = seq.x0_mean, seq.x0_cov
        oracle = oracle_for(series, params, seq)
        mean_ref, cov_ref = oracle.smoothed(0)
        np.testing.assert_allclose(mu0, mean_ref, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(Sigma0, cov_ref, rtol=1e-8, atol=1e-12)
        np.testing.assert_array_equal(Sigma0, Sigma0.T)

    def test_idempotent_given_fixed_stats(self, rng):
        params = small_params(seed=6)
        series = one_block(rng.integers(30, 70, size=5), n=100)
        filtered = kalman.filter(series, ParamStack.of([params]))
        first, second = kalman.smooth(filtered), kalman.smooth(filtered)
        np.testing.assert_array_equal(first.x0_mean, second.x0_mean)
        np.testing.assert_array_equal(first.x0_cov, second.x0_cov)

    def test_recovers_generator_bias(self):
        series, trace, gen = synthetic_block(seed=17, T=160, n=1000, q_m=1e-6, q_s=1e-6)
        init = default_init(series, gen.d)
        params, _ = fit_one(series, init, EmConfig(max_iter=60, tol=1e-9))
        sd = np.sqrt(max(params.Sigma0[0, 0], 1e-12))
        assert abs(params.mu0[0] - gen.init[0]) <= 3 * max(sd, 1e-3)


def bounded_argmax(f, lo, hi):
    res = minimize_scalar(
        lambda x: -f(x), bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
    )
    return res.x


class TestMStepR:
    def test_boundary_solution_when_binomial_noise_explains_all(self):
        # quad_t == u_t makes the objective decreasing in r
        u = np.full(6, 25.0)
        assert r_step(u, u, 100) == 0.0

    def test_single_step_closed_form(self):
        # with u = 0 and one term the maximizer is r = quad / n^2
        n, v = 200, 2e-3
        r_hat = r_step([n * n * v], [0.0], n)
        assert r_hat == pytest.approx(v, rel=1e-8)

    def test_never_exceeds_density_variance_cap(self):
        # counts 0, 10, 0, ... against a zero smoothed mean
        r_hat = r_step(np.array([0.0, 100.0] * 3), np.full(6, 1e-6), 10)
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
        quad = (u + n * n * r_star) * np.exp(rng.normal(0, 0.3, T))
        r = r_step(quad, u, n)

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
        r = r_step(quad, u, n)
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

    def test_stacked_blocks_solve_as_if_alone(self):
        # a block leaves the lockstep solve when it stops, so its r is
        # bit-identical to solving it alone; one block has gaps, one is all gap
        rng = np.random.default_rng(11)
        B, T = 6, 40
        ns = rng.integers(6, 2001, B).astype(float)
        p = rng.uniform(0.05, 0.95, (B, T))
        u = ns[:, None] * p * (1 - p)
        r_star = np.exp(rng.uniform(np.log(1e-8), np.log(1e-2), B))
        quad = (u + ns[:, None] ** 2 * r_star[:, None]) * np.exp(rng.normal(0, 0.3, (B, T)))
        quad[1, 5:15] = np.nan
        quad[2] = np.nan
        together = m_step_r(quad, u, ns)
        assert together[2] == 0.0
        for b in range(B):
            assert m_step_r(quad[b : b + 1], u[b : b + 1], ns[b : b + 1])[0] == together[b]

    def test_full_em_recovers_true_r(self):
        series, _, gen = synthetic_block(
            seed=23, d=7, T=280, n=2000, q_m=1e-7, q_s=1e-7, r=1e-3
        )
        init = default_init(series, gen.d)
        params, _ = fit_one(series, init, EmConfig(max_iter=80, tol=1e-9))
        assert 1.0 / 3.0 <= params.r / 1e-3 <= 3.0  # within a factor of 3


class TestMStepQ:
    def test_no_innovation_means_zero_variances(self):
        # a noiseless trajectory x_t = G x_{t-1} under a noiseless model:
        # the transition residual vanishes, so both variances fall to the floor
        d, n, T = 3, 100, 4
        init = np.array([0.5, 0.1, -0.1])
        G = build_state_space(d, n, 0.0, 0.0, 0.0).G
        states = [init]
        for _ in range(T):
            states.append(G @ states[-1])
        H = build_state_space(d, n, 0.0, 0.0, 0.0).H
        series = one_block(np.array(states[1:]) @ H, n=n)
        params = ModelParams(d=d, q_m=0.0, q_s=0.0, r=0.0, mu0=init, Sigma0=np.zeros((d, d)))
        seq = kalman.smooth(kalman.filter(series, ParamStack.of([params])))
        np.testing.assert_array_equal(seq.eta_sq, np.zeros((1, T, 2)))
        [q_m], [q_s] = m_step_q(seq)
        assert q_m == q_s == Q_FLOOR

    def test_hand_built_projection(self):
        # with every step a gap the smoothed moments are the model's prior
        # ones, so the expected squared disturbance is exactly Q at every step
        d, T, v_m, v_s = 3, 8, 3e-4, 7e-5
        params = ModelParams(d=d, q_m=v_m, q_s=v_s, r=0.0, mu0=np.zeros(d), Sigma0=np.zeros((d, d)))
        seq = kalman.smooth(kalman.filter(one_block([np.nan] * T, n=10), ParamStack.of([params])))
        [q_m], [q_s] = m_step_q(seq)
        assert q_m == pytest.approx(v_m, rel=1e-12)
        assert q_s == pytest.approx(v_s, rel=1e-12)

    def test_matches_numerical_maximization(self, rng):
        for seed in (1, 2):
            params = small_params(seed=seed)
            series = one_block(rng.integers(30, 70, size=7), n=100)
            seq = kalman.smooth(kalman.filter(series, ParamStack.of([params])))
            [q_m], [q_s] = m_step_q(seq)
            ref_m, ref_s = numeric_q_argmax(oracle_for(series, params, seq))
            assert q_m == pytest.approx(ref_m, rel=1e-6)
            assert q_s == pytest.approx(ref_s, rel=1e-6)

    def test_score_matches_finite_differences(self, rng):
        # with u_t frozen, d loglik / d q_i = 1/2 sum_t (E[eta_{t,i}^2] - q_i) / q_i^2,
        # read off the smoother's eta_sq; against central differences of the
        # joint-Gaussian log-likelihood with b_t = u_t + n^2 r held fixed
        for k in range(30):
            d, T = int(rng.integers(2, 6)), int(rng.integers(2, 12))
            params, series = random_instance(rng, d=d, T=T, r=1e-4)
            [n], [counts] = series.n, series.counts
            if k % 3 == 0:
                counts[rng.integers(T)] = np.nan
                series = one_block(counts, n=n)
            seq = kalman.smooth(kalman.filter(series, ParamStack.of([params])))
            q = np.array([params.q_m, params.q_s])
            score = 0.5 * ((seq.eta_sq[0] - q) / q**2).sum(axis=0)
            b_seq = seq.u[0] + n * n * params.r

            def loglik(q_m, q_s):
                ss = build_state_space(d, n, q_m, q_s, params.r)
                oracle = OracleRun(ss.G, ss.H, ss.Q, params.mu0, params.Sigma0, counts, b_seq)
                return oracle.observations_logpdf()

            for i, step in enumerate(np.diag(1e-6 * q)):
                central = (loglik(*(q + step)) - loglik(*(q - step))) / (2 * step[i])
                assert score[i] == pytest.approx(central, rel=1e-5), (k, i)

    def test_recovers_true_process_variances(self):
        series, _, gen = synthetic_block(
            seed=31, d=7, T=280, n=2000, q_m=1e-6, q_s=1e-6, r=0.0
        )
        init = default_init(series, gen.d)
        params, _ = fit_one(
            series, init, EmConfig(max_iter=80, tol=1e-9, fix_r_to_zero=True)
        )
        assert 1.0 / 3.0 <= params.q_m / 1e-6 <= 3.0
        assert 1.0 / 3.0 <= params.q_s / 1e-6 <= 3.0


class TestEmFit:
    def test_single_iteration_trace(self):
        series, _, gen = synthetic_block(seed=41, T=40)
        init = default_init(series, gen.d)
        params, trace = fit_one(series, init, EmConfig(max_iter=1))
        assert trace.iterations == 1
        assert len(trace.loglik_per_iter) == 1
        assert trace.variances_per_iter.shape == (1, 3)
        assert not trace.converged

    def test_loglik_never_decreases(self):
        for seed in range(5):
            series, _, gen = synthetic_block(seed=100 + seed, T=80, n=400)
            init = default_init(series, gen.d)
            _, trace = fit_one(series, init, EmConfig(max_iter=25, tol=1e-12))
            ll = np.array(trace.loglik_per_iter)
            assert np.all(np.diff(ll) >= -1e-8), f"seed {seed}: {np.diff(ll).min()}"

    def test_refit_converges_immediately(self):
        series, _, gen = synthetic_block(seed=57, T=100, n=200, q_m=5e-4, q_s=5e-4)
        init = default_init(series, gen.d)
        params, first = fit_one(series, init, EmConfig(max_iter=400, tol=1e-6))
        assert first.converged
        _, trace = fit_one(series, params, EmConfig(max_iter=60, tol=1e-6))
        assert trace.converged
        assert trace.iterations <= 2

    def test_fix_r_pins_measurement_variance(self):
        series, _, gen = synthetic_block(seed=61, T=60, r=1e-3)
        init = default_init(series, gen.d)
        params, trace = fit_one(series, init, EmConfig(max_iter=10, fix_r_to_zero=True))
        assert params.r == 0.0
        assert np.all(trace.variances_per_iter[:, 2] == 0.0)

    def test_fit_with_missing_observations(self):
        # gaps skip the update step and drop out of the r-objective but
        # the fit still runs and improves monotonically
        series, _, gen = synthetic_block(seed=83, T=80, n=400, q_m=1e-4, q_s=1e-4)
        counts = series.counts[0].copy()
        counts[[7, 8, 31]] = np.nan
        gappy = one_block(counts, n=series.n[0])
        params, trace = fit_one(
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
        params, trace = fit_one(
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
        params, trace = fit_one(
            series, default_init(series, d), EmConfig(max_iter=4, tol=1e-9)
        )
        assert np.all(np.diff(trace.loglik_per_iter) >= -1e-8)
        assert params.mu0.shape == (d,)

    def test_learned_q_is_exactly_diagonal(self):
        series, _, gen = synthetic_block(seed=67, T=50)
        init = default_init(series, gen.d)
        params, _ = fit_one(series, init, EmConfig(max_iter=10))
        ss = params.state_space(series.n[0])
        expected = np.zeros((gen.d, gen.d))
        expected[0, 0], expected[1, 1] = params.q_m, params.q_s
        np.testing.assert_array_equal(ss.Q, expected)

    def test_r_step_weakly_improves_objective(self):
        # evaluate the r-objective before and after each M-step
        series, _, gen = synthetic_block(seed=71, T=80, n=400, r=5e-4)
        params = default_init(series, gen.d)
        n = series.n[0]
        for _ in range(8):
            seq = kalman.smooth(kalman.filter(series, params))
            quad, u = seq.quad[0], seq.u[0]
            r_new = m_step_r(seq.quad, seq.u, series.n)
            assert r_objective(r_new[0], quad, u, n) >= r_objective(params.r[0], quad, u, n) - 1e-9
            params = ParamStack(gen.d, *m_step_q(seq), r_new, seq.x0_mean, seq.x0_cov)

    def test_estep_failure_carries_iteration(self):
        series = one_block([5, 5], n=10)
        bad = ModelParams(
            d=2, q_m=0.0, q_s=0.0, r=0.0, mu0=np.zeros(2), Sigma0=-1e6 * np.eye(2)
        )
        with pytest.raises(EmError, match="iteration 0: block a:a: t=1") as excinfo:
            fit_one(series, bad, EmConfig(max_iter=3))
        assert excinfo.value.iteration == 0

    def test_estep_failure_names_the_block(self):
        # a warm start with Sigma0 = -10 I in one block of three
        blocks = concat(
            one_block(synthetic_block(seed=90 + k, T=30, n=200)[0].counts[0], n=200, pair=pair)
            for k, pair in enumerate([("a", "a"), ("a", "b"), ("b", "b")])
        )
        inits = default_init(blocks, 7)
        bad = ModelParams(d=7, q_m=1e-6, q_s=1e-6, r=0.0, mu0=inits.mu0[2], Sigma0=-10.0 * np.eye(7))
        with pytest.raises(EmError, match=r"iteration 0: block b:b: t=1: non-positive innovation variance"):
            em_fit(blocks, inits.put([2], ParamStack.of([bad])), EmConfig(max_iter=5))


class TestLockstep:
    """Lockstep EM against plain per-block EM, row for row."""

    @pytest.mark.parametrize("fix_r", [False, True])
    def test_matches_per_block_reference(self, fix_r):
        blocks = []
        for k, (n, q, T_gap) in enumerate([(28, 5e-4, None), (64, 5e-4, 9), (2000, 1e-5, None), (120, 1e-4, 3)]):
            series, _, gen = synthetic_block(seed=200 + k, d=4, T=50, n=n, q_m=q, q_s=q, r=1e-4)
            counts = series.counts[0].copy()
            if T_gap is not None:
                counts[T_gap : T_gap + 10] = np.nan
            blocks.append(one_block(counts, n=n, pair=("a", f"b{k}")))
        blocks = concat(blocks)
        inits = default_init(blocks, gen.d)
        config = EmConfig(max_iter=40, tol=1e-4, fix_r_to_zero=fix_r)
        params, traces = em_fit(blocks, inits, config)
        # the blocks stop at different iterations, one of them at the cap
        assert len({t.iterations for t in traces}) >= 3
        assert not all(t.converged for t in traces)
        for counts, n, init, p, trace in zip(blocks.counts, blocks.n, inits, params, traces):
            p_ref, rows, converged = ref.em_fit(
                counts, int(n), init, config.max_iter, config.tol, fix_r
            )
            assert (trace.iterations, trace.converged) == (len(rows), converged)
            got = np.column_stack((trace.loglik_per_iter, trace.variances_per_iter))
            np.testing.assert_allclose(got, rows, rtol=1e-10, atol=0)
            for name in ("q_m", "q_s", "r", "mu0", "Sigma0"):
                np.testing.assert_allclose(getattr(p, name), getattr(p_ref, name), rtol=1e-10, atol=1e-14)


def per_block_default_init(counts, n, d, flat_defaults=False) -> ModelParams:
    """The per-block formula that ``default_init`` vectorises, kept as
    its reference."""
    mask = ~np.isnan(counts)
    y = counts[mask] / n
    head = counts[:d] / n
    head_obs = head[~np.isnan(head)]
    bias = float(head_obs.mean()) if head_obs.size else 0.5
    dev = np.where(np.isnan(head), 0.0, head - bias)
    offsets = np.zeros(d - 1)
    for j in range(d - 1):
        k = d - 1 - j
        if k < dev.shape[0]:
            offsets[j] = dev[k]
    mu0 = np.concatenate(([bias], offsets))
    if flat_defaults:
        return ModelParams(d=d, q_m=1.0, q_s=1.0, r=1.0, mu0=mu0, Sigma0=np.eye(d))
    var_w = float(y.var()) if y.size > 1 else 0.0
    T_obs = max(int(mask.sum()), 1)
    q = max(var_w / T_obs, 1e-15)
    return ModelParams(d=d, q_m=q, q_s=q, r=max(var_w / 10.0, 0.0), mu0=mu0, Sigma0=0.01 * np.eye(d))


class TestDefaultInit:
    def test_phase_deviations_seed_offsets(self):
        d, n = 4, 100
        counts = np.array([60.0, 40.0, 50.0, 50.0, 60.0, 40.0, 50.0, 50.0])
        [params] = default_init(one_block(counts, n=n), d)
        bias = counts[:d].mean() / n
        assert params.mu0[0] == pytest.approx(bias)
        # offsets (s_0, s_-1, s_-2) estimate phases (d, d-1, d-2) = t 4, 3, 2
        assert params.mu0[1] == pytest.approx(counts[3] / n - bias)
        assert params.mu0[2] == pytest.approx(counts[2] / n - bias)
        assert params.mu0[3] == pytest.approx(counts[1] / n - bias)

    def test_flat_defaults_flag(self):
        [params] = default_init(one_block([50, 60, 40], n=100), 3, flat_defaults=True)
        assert params.q_m == params.q_s == params.r == 1.0
        np.testing.assert_array_equal(params.Sigma0, np.eye(3))

    def test_data_scaled_variances(self):
        counts = np.array([50.0, 60.0, 40.0, 55.0, 45.0])
        [params] = default_init(one_block(counts, n=100), 3)
        var_y = (counts / 100).var()
        assert params.q_m == pytest.approx(var_y / 5)
        assert params.r == pytest.approx(var_y / 10)

    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("T", [60, 4])
    def test_matches_per_block_formula(self, flat, T):
        # bit-identical on gap-free blocks (T = 4 is shorter than d);
        # within 1e-12 with gaps, an all-gap block and a single observation
        rng = np.random.default_rng(8)
        d, ns = 7, np.array([28, 64, 2000, 120, 45, 500])
        counts = rng.binomial(ns[:, None], rng.uniform(0.1, 0.9, (len(ns), 1)), (len(ns), T)).astype(float)
        counts[3, 2 : 2 + T // 3] = np.nan
        counts[4] = np.nan
        counts[5, 1:] = np.nan
        blocks = BlockStack(tuple(("a", f"b{k}") for k in range(len(ns))), ns, counts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = default_init(blocks, d, flat_defaults=flat)
        for b, (row, n) in enumerate(zip(counts, ns)):
            want = per_block_default_init(row, n, d, flat)
            for name in ("q_m", "q_s", "r", "mu0", "Sigma0"):
                g, w = getattr(got[b], name), getattr(want, name)
                if np.isnan(row).any():
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=0, err_msg=f"{b} {name}")
                else:
                    np.testing.assert_array_equal(g, w, err_msg=f"{b} {name}")
