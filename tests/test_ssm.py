import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdsbm import kalman
from sdsbm.graph_model import BlockStack
from sdsbm.ssm import (
    ModelParams,
    ParamStack,
    binomial_obs_noise,
    initial_state,
    observe,
    outside_normal_regime,
    step,
    transition,
)

from conftest import concat, one_block, stacked
from gaussian_oracle import dense_model


def stack_of(d=3, q_m=0.0, q_s=0.0, r=0.0):
    """A stack of parameters with a zero initial belief, one block per
    entry of the broadcast variances."""
    q_m, q_s, r = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float)) for v in (q_m, q_s, r)))
    return ParamStack(d, q_m, q_s, r, np.zeros((len(r), d)), np.zeros((len(r), d, d)))


class TestBuildStateSpace:
    """A block's model is its n (``BlockStack``, checked there to be
    >= 1), its parameters (``ModelParams`` or a ``ParamStack`` row, which
    check d >= 2 and the variances) and the transition G of its period;
    H = n (1, 1, 0, ...) and Q = diag(q_m, q_s, 0, ...) are not stored."""

    def test_d3_matrices(self):
        np.testing.assert_array_equal(
            transition(3), np.array([[1, 0, 0], [0, -1, -1], [0, 1, 0]], dtype=float)
        )

    def test_d2_smallest_period(self):
        np.testing.assert_array_equal(transition(2), np.array([[1, 0], [0, -1]], dtype=float))

    def test_d4_symbolic_transition(self):
        x = np.array([2.0, 3.0, 5.0, 7.0])  # (m, s_a, s_b, s_c)
        np.testing.assert_array_equal(transition(4) @ x, np.array([2.0, -15.0, 3.0, 5.0]))

    def test_rejects_small_period(self):
        with pytest.raises(ValueError, match="d must be >= 2"):
            ModelParams(d=1, q_m=0.0, q_s=0.0, r=0.0, mu0=np.zeros(1), Sigma0=np.eye(1))
        with pytest.raises(ValueError, match="d must be >= 2"):
            stack_of(d=1)
        with pytest.raises(ValueError, match="has no possible edges"):
            BlockStack((("a", "a"),), np.array([0.0]), np.zeros((1, 3)))

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError, match="non-negative"):
            stack_of(q_m=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_variance(self, value):
        for variances in [(value, 0.0, 0.0), (0.0, value, 0.0), (0.0, 0.0, value)]:
            with pytest.raises(ValueError, match="finite"):
                stack_of(3, *variances)


class TestLayout:
    """``ssm`` writes the state layout once: G (``step``, and
    ``transition`` as a matrix), H (``observe``), the entries Q drives
    and their variances (``ParamStack.q``), and where each phase's
    offset sits (``initial_state``)."""

    @pytest.mark.parametrize("d", range(2, 31))
    def test_transition_is_the_hand_built_matrix(self, d):
        G = np.zeros((d, d))
        G[0, 0] = 1.0
        G[1, 1:] = -1.0
        G[2:, 1 : d - 1] = np.eye(d - 2)
        # bit for bit, the signs of the zeros included
        assert transition(d).tobytes() == G.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_observe_is_the_oracle_observation_row(self, d):
        for n in (1.0, 12.0, 496.0):
            H = dense_model(stack_of(d)[0], n).H
            np.testing.assert_array_equal(observe(np.eye(d), n), H)
            x = np.random.default_rng(d).normal(size=(5, d))
            np.testing.assert_allclose(observe(x, n), x @ H, rtol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 7, 24])
    def test_step_is_the_matrix_product(self, d):
        # equal to rounding only, relative to the size of the summed
        # offsets: a 1-D state sums them in another order than the
        # matrix product does
        G = transition(d)
        x = np.random.default_rng(d).normal(size=(200, d))
        scale = np.abs(x).sum(axis=-1, keepdims=True)
        assert (np.abs(step(x) - x @ G.T) <= 1e-15 * scale).all()
        for row, row_scale in zip(x, scale):
            assert (np.abs(step(row) - row @ G.T) <= 1e-15 * row_scale).all()

    @pytest.mark.parametrize("d", range(2, 31))
    def test_initial_state_places_each_phase(self, d):
        rng = np.random.default_rng(d)
        bias, p = rng.normal(), rng.normal(size=d)
        want = np.array([bias] + [p[(-j) % d] for j in range(d - 1)])
        assert initial_state(bias, p).tobytes() == want.tobytes()
        # a stack of first-period deviations, index k taken at step k + 1
        biases, dev = rng.normal(size=5), rng.normal(size=(5, d))
        want = np.column_stack((biases, dev[:, :0:-1]))
        assert initial_state(biases, np.roll(dev, 1, axis=1)).tobytes() == want.tobytes()
        # a zero-sum profile of multiples of 1/1024 repeats exactly: the
        # offset at step t is the profile at phase t % d
        k = rng.integers(-50, 51, size=d)
        k[-1] -= k.sum()
        x = initial_state(0.25, k / 1024.0)
        for t in range(1, 2 * d + 1):
            x = step(x)
            assert x[0] == 0.25 and x[1] == k[t % d] / 1024.0

    @pytest.mark.parametrize("d", range(2, 31))
    def test_q_is_in_the_order_of_driven(self, d):
        q_m, q_s = np.random.default_rng(d).uniform(size=(2, 4))
        assert stack_of(d, q_m, q_s).q.tobytes() == np.column_stack((q_m, q_s)).tobytes()



@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=14))
def test_transition_structure_properties(d):
    G = transition(d)
    # permutation-plus-negation structure
    assert abs(abs(np.linalg.det(G)) - 1.0) < 1e-9
    # noiseless trajectories repeat with period d (entries stay 0/+-1,
    # so the power is exact)
    np.testing.assert_array_equal(np.linalg.matrix_power(G, d), np.eye(d))


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
        ps = stacked(params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = kalman.filter(stack, ps)
            ahead = kalman.filter(stack.with_gaps(4), ps)
        assert seq.non_gaussian_steps.tolist() == [3, 3, 0]
        assert ahead.non_gaussian_steps.tolist() == [7, 7, 0]


def measurement_var(n, r):
    """The filter record's n^2 r for blocks of n possible edges and
    measurement variances r."""
    n = np.atleast_1d(n).astype(float)
    blocks = BlockStack(tuple(("a", f"b{i}") for i in range(len(n))), n, np.zeros((len(n), 0)))
    return kalman.filter(blocks, stack_of(2, r=r)).measurement_var


class TestObservationVariance:
    # the observation variance b_t = u_t + n^2 r, n^2 r being the belief
    # record's measurement_var
    def test_binomial_only(self):
        assert 25.0 + measurement_var(100, 0.0)[0] == 25.0

    def test_with_measurement_noise(self):
        assert 25.0 + measurement_var(100, 0.01)[0] == pytest.approx(125.0)

    def test_large_block(self):
        assert 29.1 + measurement_var(1000, 1e-4)[0] == pytest.approx(129.1)

    def test_stacked_blocks(self):
        got = measurement_var([100.0, 1000.0], [0.01, 1e-4])
        np.testing.assert_allclose(got, [100.0, 100.0], rtol=1e-15)

    def test_binomial_noise_stays_positive(self):
        # the filter never divides by a zero observation variance at r = 0
        assert binomial_obs_noise(np.array([0.0, 100.0]), 100).min() > 0.0

    @pytest.mark.parametrize("r", [-1e-3, np.nan, np.inf])
    def test_rejects_bad_measurement_variance(self, r):
        with pytest.raises(ValueError, match="variances must be"):
            ModelParams(d=2, q_m=0.0, q_s=0.0, r=r, mu0=np.zeros(2), Sigma0=np.eye(2))
        with pytest.raises(ValueError, match="variances must be"):
            stack_of(2, r=r)


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
        stack = stacked(blocks)
        assert len(stack) == 2 and stack.Sigma0.shape == (2, 3, 3)
        for k, p in enumerate(blocks):
            for name in ("q_m", "q_s", "r", "mu0", "Sigma0"):
                np.testing.assert_array_equal(getattr(stack[k], name), getattr(p, name))
        with pytest.raises(ValueError, match="symmetric"):
            ParamStack(3, stack.q_m, stack.q_s, stack.r, stack.mu0, stack.Sigma0 + np.triu(np.ones(3)))
        with pytest.raises(ValueError, match="period d"):
            stacked([blocks[0], ModelParams(d=2, q_m=0, q_s=0, r=0, mu0=np.zeros(2), Sigma0=np.eye(2))])

    def test_variances_are_stored_as_floats(self):
        p = ModelParams(d=2, q_m=1, q_s=np.float64(0.5), r=np.array(0.25), mu0=np.zeros(2), Sigma0=np.eye(2))
        assert [type(v) for v in (p.q_m, p.q_s, p.r)] == [float] * 3
        assert (p.q_m, p.q_s, p.r) == (1.0, 0.5, 0.25)

    def test_state_space_roundtrip(self):
        # the filter's record keeps the block's n and parameters as given
        p = ModelParams(d=3, q_m=0.1, q_s=0.2, r=0.05, mu0=np.zeros(3), Sigma0=np.eye(3))
        seq = kalman.filter(one_block([4, np.nan], n=12), stacked([p]))
        assert seq.n.tolist() == [12.0]
        for name in ("d", "q_m", "q_s", "r", "mu0", "Sigma0"):
            np.testing.assert_array_equal(getattr(seq.params[0], name), getattr(p, name))
        assert seq.measurement_var.tolist() == [12 * 12 * 0.05]
