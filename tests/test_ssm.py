import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdsbm import kalman
from sdsbm.ssm import (
    ModelParams,
    ParamStack,
    binomial_obs_noise,
    build_state_space,
    outside_normal_regime,
)

from conftest import concat, one_block


class TestBuildStateSpace:
    def test_d3_matrices(self):
        ss = build_state_space(3, 10, 0.5, 0.25, 0.0)
        np.testing.assert_array_equal(
            ss.G, np.array([[1, 0, 0], [0, -1, -1], [0, 1, 0]], dtype=float)
        )
        np.testing.assert_array_equal(ss.H, np.array([10.0, 10.0, 0.0]))
        np.testing.assert_array_equal(ss.Q, np.diag([0.5, 0.25, 0.0]))

    def test_d2_smallest_period(self):
        ss = build_state_space(2, 5, 0.0, 0.0, 0.0)
        np.testing.assert_array_equal(ss.G, np.array([[1, 0], [0, -1]], dtype=float))
        np.testing.assert_array_equal(ss.H, np.array([5.0, 5.0]))

    def test_d4_symbolic_transition(self):
        ss = build_state_space(4, 1, 0.0, 0.0, 0.0)
        x = np.array([2.0, 3.0, 5.0, 7.0])  # (m, s_a, s_b, s_c)
        np.testing.assert_array_equal(ss.G @ x, np.array([2.0, -15.0, 3.0, 5.0]))

    def test_rejects_small_period(self):
        with pytest.raises(ValueError, match="d must be >= 2"):
            build_state_space(1, 10, 0.0, 0.0, 0.0)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_state_space(3, 10, -1.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_variance(self, value):
        for variances in [(value, 0.0, 0.0), (0.0, value, 0.0), (0.0, 0.0, value)]:
            with pytest.raises(ValueError, match="finite"):
                build_state_space(3, 10, *variances)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=14))
def test_transition_structure_properties(d):
    ss = build_state_space(d, 7, 0.1, 0.2, 0.0)
    # permutation-plus-negation structure
    assert abs(abs(np.linalg.det(ss.G)) - 1.0) < 1e-9
    # noiseless trajectories repeat with period d (entries stay 0/+-1,
    # so the power is exact)
    np.testing.assert_array_equal(np.linalg.matrix_power(ss.G, d), np.eye(d))
    # H x = n (m + leading offset)
    x = np.arange(1.0, d + 1.0)
    assert ss.H @ x == 7 * (x[0] + x[1])
    # Q is diagonal PSD
    assert np.all(np.linalg.eigvalsh(ss.Q) >= 0.0)


class TestBinomialObsNoise:
    def test_midpoint(self):
        assert binomial_obs_noise(50.0, 100) == pytest.approx(25.0)

    def test_boundary_clamp(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = binomial_obs_noise(0.0, 100)
        assert u == pytest.approx(100 * 1e-6 * (1 - 1e-6), rel=1e-12)

    def test_large_n(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert binomial_obs_noise(30.0, 1000) == pytest.approx(29.1)

    def test_always_positive(self):
        for predicted in (-5.0, 0.0, 50.0, 100.0, 200.0):
            assert binomial_obs_noise(predicted, 100) > 0.0

    def test_elementwise(self):
        predicted = np.array([[-5.0, 30.0], [50.0, 200.0]])
        n = np.array([[100.0], [1000.0]])
        u = binomial_obs_noise(predicted, n)
        assert u.shape == (2, 2)
        for idx in np.ndindex(2, 2):
            assert u[idx] == binomial_obs_noise(float(predicted[idx]), float(n[idx[0], 0]))
        assert isinstance(binomial_obs_noise(30.0, 1000), float)

    def test_counts_outside_gaussian_regime(self):
        # the filter, forecast steps included, counts the block-steps whose
        # predicted count is within 10 of 0 or n, where a warning used to fire
        assert outside_normal_regime(np.array([3.0, 95.0, 50.0, np.nan]), 100).tolist() == [
            True, True, False, False
        ]
        d, n = 2, 100
        # predicted counts 3, 95 and 50, unchanged by the noise-free transition
        params = [
            ModelParams(d=d, q_m=0.0, q_s=0.0, r=0.0, mu0=np.array([m, 0.0]), Sigma0=np.zeros((d, d)))
            for m in (0.03, 0.95, 0.5)
        ]
        stack = concat(one_block([3, np.nan, 3], n=n, pair=("a", p)) for p in "bcd")
        ps = ParamStack.of(params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = kalman.filter(stack, ps)
            ahead = kalman.filter(stack.with_gaps(4), ps)
        assert seq.non_gaussian_steps.tolist() == [3, 3, 0]
        assert ahead.non_gaussian_steps.tolist() == [7, 7, 0]


class TestObservationVariance:
    # the observation variance b_t = u_t + n^2 r, n^2 r being the state
    # space's measurement_var
    def test_binomial_only(self):
        assert 25.0 + build_state_space(2, 100, 0.0, 0.0, 0.0).measurement_var == 25.0

    def test_with_measurement_noise(self):
        assert 25.0 + build_state_space(2, 100, 0.0, 0.0, 0.01).measurement_var == pytest.approx(125.0)

    def test_large_block(self):
        assert 29.1 + build_state_space(2, 1000, 0.0, 0.0, 1e-4).measurement_var == pytest.approx(129.1)

    def test_stacked_blocks(self):
        ss = build_state_space(2, np.array([100.0, 1000.0]), 0.0, 0.0, np.array([0.01, 1e-4]))
        np.testing.assert_allclose(ss.measurement_var, [100.0, 100.0], rtol=1e-15)

    def test_binomial_noise_stays_positive(self):
        # the filter never divides by a zero observation variance at r = 0
        assert binomial_obs_noise(np.array([0.0, 100.0]), 100).min() > 0.0

    @pytest.mark.parametrize("r", [-1e-3, np.nan, np.inf])
    def test_rejects_bad_measurement_variance(self, r):
        with pytest.raises(ValueError, match="variances must be"):
            build_state_space(2, 100, 0.0, 0.0, r)


class TestModelParams:
    def test_validates_dimensions(self):
        with pytest.raises(ValueError, match="mu0"):
            ModelParams(d=3, q_m=0.1, q_s=0.1, r=0.0, mu0=np.zeros(2), Sigma0=np.eye(3))

    @pytest.mark.parametrize("field", ["q_m", "q_s", "r"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_variances(self, field, value):
        kwargs = dict(d=3, q_m=1e-4, q_s=1e-4, r=1e-3, mu0=np.zeros(3), Sigma0=np.eye(3))
        kwargs[field] = value
        with pytest.raises(ValueError, match="finite"):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_initial_belief(self, value):
        mu0 = np.array([0.5, value, 0.0])
        with pytest.raises(ValueError, match="finite"):
            ModelParams(d=3, q_m=0.0, q_s=0.0, r=0.0, mu0=mu0, Sigma0=np.eye(3))
        Sigma0 = np.eye(3)
        Sigma0[0, 0] = value
        with pytest.raises(ValueError, match="finite"):
            ModelParams(d=3, q_m=0.0, q_s=0.0, r=0.0, mu0=np.zeros(3), Sigma0=Sigma0)

    def test_rejects_asymmetric_sigma0(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ModelParams(d=2, q_m=0.1, q_s=0.1, r=0.0, mu0=np.zeros(2), Sigma0=bad)

    def test_stack_roundtrip(self):
        blocks = [
            ModelParams(d=3, q_m=0.1 * k, q_s=0.2, r=0.05, mu0=np.full(3, k), Sigma0=k * np.eye(3))
            for k in (1.0, 2.0)
        ]
        stack = ParamStack.of(blocks)
        assert len(stack) == 2 and stack.Sigma0.shape == (2, 3, 3)
        for k, p in enumerate(blocks):
            for name in ("q_m", "q_s", "r", "mu0", "Sigma0"):
                np.testing.assert_array_equal(getattr(stack[k], name), getattr(p, name))
        ss = stack.state_space(np.array([12, 20]))
        np.testing.assert_array_equal(ss.H[:, :2], [[12, 12], [20, 20]])
        np.testing.assert_array_equal(ss.Q[1], np.diag([0.2, 0.2, 0.0]))
        with pytest.raises(ValueError, match="symmetric"):
            ParamStack(3, stack.q_m, stack.q_s, stack.r, stack.mu0, stack.Sigma0 + np.triu(np.ones(3)))
        with pytest.raises(ValueError, match="period d"):
            ParamStack.of([blocks[0], ModelParams(d=2, q_m=0, q_s=0, r=0, mu0=np.zeros(2), Sigma0=np.eye(2))])

    def test_variances_are_stored_as_floats(self):
        p = ModelParams(d=2, q_m=1, q_s=np.float64(0.5), r=np.array(0.25), mu0=np.zeros(2), Sigma0=np.eye(2))
        assert [type(v) for v in (p.q_m, p.q_s, p.r)] == [float] * 3
        assert (p.q_m, p.q_s, p.r) == (1.0, 0.5, 0.25)

    def test_state_space_roundtrip(self):
        p = ModelParams(d=3, q_m=0.1, q_s=0.2, r=0.05, mu0=np.zeros(3), Sigma0=np.eye(3))
        ss = p.state_space(12)
        assert ss.n == 12
        assert ss.r == 0.05
        np.testing.assert_array_equal(np.diag(ss.Q), [0.1, 0.2, 0.0])
