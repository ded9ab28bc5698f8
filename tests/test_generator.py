import generator_reference
import numpy as np
import pytest

from conftest import generated_network, known_start, network_of_edges
from generator_reference import _sample_block, step_major_series
from sdsbm.generator import (
    generate_block_series,
    generate_network,
    seasonal_state,
    sine_profile,
)
from sdsbm.graph_model import (
    VertexTyping,
    block_pairs,
    extract_block_series,
)
from sdsbm.ssm import ParamStack, transition


class _ExpectationRng:
    """Stand-in rng that returns every draw's expectation."""

    def standard_normal(self, size):
        return np.zeros(size)

    def binomial(self, n, p):
        return n * p

    def random(self, size):
        return np.full(size, 0.5)


def noiseless(init, r=0.0):
    return known_start(0.0, 0.0, r, init)


def sampled_states(params, T, rng):
    """The hidden states of one row's sampled walk, t = 1..T."""
    _, [states], _ = generate_block_series(params, n=10, T=T, rng=rng)
    return states


def assert_same_bits(got, want):
    """Each array of ``got`` equals its partner in ``want`` bit for bit:
    the same shape, dtype and bytes, so the sign of every zero too."""
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestGeneratorParams:
    """The generator takes the ``ParamStack`` that the filter and EM take,
    and its rows are checked as theirs are."""

    @pytest.mark.parametrize("field", ["q_m", "q_s", "r"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_rejects_bad_variances(self, field, value):
        opts = dict(q_m=0.0, q_s=0.0, r=0.0, mu0=seasonal_state(3, 0.5, np.zeros(3)))
        opts[field] = value
        with pytest.raises(ValueError, match="variances must be"):
            known_start(**opts)

    @pytest.mark.parametrize(
        "init,match",
        [
            (np.array([np.nan, 0.0, 0.0]), "finite"),
            (np.array([0.5, np.inf, 0.0]), "finite"),
            (np.zeros(4), "length"),
            (np.zeros((3, 1)), "length"),
        ],
    )
    def test_rejects_bad_init(self, init, match):
        with pytest.raises(ValueError, match=match):
            ParamStack(3, [0.0], [0.0], [0.0], [init], np.zeros((1, 3, 3)))

    def test_rejects_uncertain_start(self, rng):
        # a run starts from a known state: the generator refuses a non-zero Sigma0
        uncertain = ParamStack(3, [0.0], [0.0], [0.0], [seasonal_state(3, 0.5, np.zeros(3))], [1e-3 * np.eye(3)])
        with pytest.raises(ValueError, match="Sigma0 must be 0"):
            generate_block_series(uncertain, n=10, T=5, rng=rng)
        typing = small_typing()
        params = uniform_params(typing).put([2], uncertain)
        with pytest.raises(ValueError, match="Sigma0 must be 0"):
            generate_network(params, typing, T=2, rng=rng)

    def test_rows_take_each_step_together(self):
        d, T, n = 5, 30, [10, 40, 6]
        mu0 = [seasonal_state(d, bias, sine_profile(d, 0.1)) for bias in (0.2, 0.5, 0.8)]
        params = ParamStack(
            d, [1e-4, 0.0, 1e-3], [1e-4, 1e-3, 0.0], [1e-3, 1e-2, 0.0], mu0, np.zeros((3, d, d))
        )
        pairs = [("a", "a"), ("a", "b"), ("b", "b")]
        stack, states, density = generate_block_series(params, n, T, np.random.default_rng(4), pairs)
        assert stack.pairs == tuple(pairs) and stack.n.tolist() == n
        assert states.shape == (3, T, d) and density.shape == stack.counts.shape == (3, T)
        assert_same_bits((states, density, stack.counts), step_major_series(params, n, T, np.random.default_rng(4)))


@pytest.mark.parametrize("seed", [8, 9])
def test_samplers_match_the_reference_walk_bit_for_bit(seed):
    # rows whose q_s or every variance is 0, at a zero seasonal profile:
    # the step leaves their offset at -0.0, and the zero noise then added
    # is +0.0 under numpy's normal(0.0, 0.0), which clears the sign
    d, T, n = 4, 40, [10, 40, 6]
    mu0 = [seasonal_state(d, 0.5, sine_profile(d, amplitude)) for amplitude in (0.1, 0.0, 0.0)]
    params = ParamStack(
        d, [1e-4, 0.0, 1e-4], [1e-4, 0.0, 0.0], [1e-3, 0.0, 1e-3], mu0, np.zeros((3, d, d))
    )
    pairs = [("a", "a"), ("a", "b"), ("b", "b")]
    stack, states, density = generate_block_series(params, n, T, np.random.default_rng(seed), pairs)
    assert_same_bits((states, density, stack.counts), step_major_series(params, n, T, np.random.default_rng(seed)))
    # a one-row call is that row's walk alone, each step's count drawn after its noises
    for b in range(3):
        rng = np.random.default_rng(seed)
        one, one_states, one_density = generate_block_series(params.take([b]), n[b], T, rng, pairs[b : b + 1])
        rng = np.random.default_rng(seed)
        walk = _sample_block(params, b, T, rng, lambda t, e: rng.binomial(n[b], e))
        assert_same_bits((one_states[0], one_density[0], one.counts[0]), walk)
    typing = small_typing()
    _, *truth = generated_network(params, typing, T, np.random.default_rng(seed))
    _, *ref_truth = generator_reference.generate_network(params, typing, T, np.random.default_rng(seed))
    assert_same_bits(truth, ref_truth)


def test_the_truth_is_arrays_not_per_row_records():
    import sdsbm
    import sdsbm.generator

    assert not hasattr(sdsbm, "LatentTrace") and not hasattr(sdsbm.generator, "LatentTrace")


class TestStepLatent:
    """The sampled walk steps the state with ``ssm.step`` and adds noise
    to the entries ``ssm.DRIVEN``."""

    def test_zero_sum_recurrence_d3(self, rng):
        states = sampled_states(noiseless(np.array([0.5, 0.1, -0.1])), 4, rng)
        assert states[:, 1].tolist() == [0.0, -0.1, 0.1, 0.0]

    def test_zero_noise_keeps_bias(self, rng):
        state = sampled_states(noiseless(seasonal_state(4, 0.37, np.zeros(4))), 1, rng)[0]
        assert state[0] == 0.37

    def test_bias_increment_variance(self):
        # Monte-Carlo check of the bias random walk variance
        rng = np.random.default_rng(7)
        q = 1e-6
        init = seasonal_state(7, 0.5, np.zeros(7))
        biases = sampled_states(known_start(q, 1e-6, 0.0, init), 10_000, rng)[:, 0]
        increments = np.diff(np.concatenate(([init[0]], biases)))
        assert increments.var() == pytest.approx(q, rel=0.2)

    def test_matches_transition_matrix(self, rng):
        # the sampler's recurrence is exactly x_t = G x_{t-1} in the
        # noiseless case
        d = 5
        init = np.array([0.4, 0.05, -0.02, 0.01, -0.04])
        G = transition(d)
        states, vec = sampled_states(noiseless(init), 12, rng), init
        for state in states:
            vec = G @ vec
            np.testing.assert_allclose(state, vec, atol=1e-15)


class TestSeasonalStart:
    def test_profile_repeats_noiselessly(self, rng):
        d = 6
        profile = sine_profile(d, 0.1)
        states = sampled_states(noiseless(seasonal_state(d, 0.5, profile)), 3 * d, rng)
        for t, state in enumerate(states, 1):
            assert state[1] == pytest.approx(profile[t % d], abs=1e-12)

    def test_profile_centering(self):
        st = seasonal_state(4, 0.5, np.array([1.0, 2.0, 3.0, 4.0]))
        # stored window plus the implicit value sums to ~0
        implicit = -st[1:].sum()
        assert st[1:].sum() + implicit == 0.0


class TestGenerateBlockSeries:
    def test_deterministic_core(self):
        params = noiseless(seasonal_state(3, 0.5, np.zeros(3)))
        series, _, density = generate_block_series(params, n=100, T=3, rng=_ExpectationRng())
        assert series.pairs == (("a", "a"),) and series.n.tolist() == [100.0]
        assert series.counts.tolist() == [[50.0, 50.0, 50.0]]
        assert density.tolist() == [[0.5, 0.5, 0.5]]

    def test_boundary_density(self, rng):
        params = noiseless(seasonal_state(3, 1.0, np.zeros(3)))
        series, _, _ = generate_block_series(params, n=20, T=5, rng=rng)
        assert np.all(series.counts == 20.0)

    def test_binomial_moments(self):
        rng = np.random.default_rng(11)
        params = noiseless(seasonal_state(4, 0.3, np.zeros(4)))
        series, _, _ = generate_block_series(params, n=1000, T=10_000, rng=rng)
        assert series.counts.mean() == pytest.approx(300.0, rel=0.01)
        assert series.counts.var() == pytest.approx(210.0, rel=0.10)

    def test_density_clamped(self):
        rng = np.random.default_rng(3)
        params = noiseless(seasonal_state(3, 0.5, np.zeros(3)), r=0.5)
        _, _, density = generate_block_series(params, n=10, T=200, rng=rng)
        assert density.shape == (1, 200)
        assert density.min() >= 0.0
        assert density.max() <= 1.0

    def test_rejects_bad_sizes(self, rng):
        params = noiseless(seasonal_state(3, 0.5, np.zeros(3)))
        with pytest.raises(ValueError):
            generate_block_series(params, n=0, T=5, rng=rng)
        with pytest.raises(ValueError):
            generate_block_series(params, n=5, T=0, rng=rng)
        with pytest.raises(ValueError, match="2 parameter rows for 1 block pairs"):
            generate_block_series(params.take([0, 0]), n=5, T=3, rng=rng)

    def test_zero_sum_window_exact(self):
        # with q_s = 0 each window of d consecutive seasonal values
        # (implicit one included) cancels exactly
        rng = np.random.default_rng(5)
        d = 7
        params = known_start(1e-4, 0.0, 0.0, seasonal_state(d, 0.5, sine_profile(d, 0.1)))
        _, [states], _ = generate_block_series(params, n=50, T=50, rng=rng)
        states = np.vstack([params.mu0, states])
        for t in range(1, states.shape[0]):
            window = states[t, 1] + np.sum(states[t - 1, 1:])
            assert window == 0.0


def small_typing():
    ids = tuple(f"a{i}" for i in range(4)) + tuple(f"b{i}" for i in range(3))
    return VertexTyping({v: v[0] for v in ids})


def uniform_params(typing, **kw):
    """One row of the same parameters for each of the typing's blocks."""
    opts = dict(q_m=0.0, q_s=0.0, r=0.0, mu0=seasonal_state(3, 0.5, np.zeros(3)))
    opts.update(kw)
    return known_start(**opts).take([0] * len(typing.blocks()[0]))


class TestGenerateNetwork:
    def test_full_density_gives_complete_blocks(self, rng):
        typing = small_typing()
        params = uniform_params(typing, mu0=seasonal_state(3, 1.0, np.zeros(3)))
        net, *_ = generated_network(params, typing, T=2, rng=rng)
        stack = extract_block_series(net)
        assert stack.pairs == (("a", "a"), ("a", "b"), ("b", "b"))
        assert stack.counts.tolist() == [[6.0, 6.0], [12.0, 12.0], [3.0, 3.0]]

    def test_zero_density_gives_empty_graphs(self, rng):
        typing = small_typing()
        params = uniform_params(typing, mu0=seasonal_state(3, 0.0, np.zeros(3)))
        net, *_ = generated_network(params, typing, T=3, rng=rng)
        assert net.T == 3 and net.keys.size == 0

    def test_extraction_matches_trace_counts(self, rng):
        typing = small_typing()
        params = uniform_params(typing, q_m=1e-4, q_s=1e-4, r=1e-3)
        net, _, _, counts = generated_network(params, typing, T=20, rng=rng)
        stack = extract_block_series(net)
        assert stack.pairs == typing.blocks()[0]
        np.testing.assert_array_equal(stack.counts, counts)

    def test_seeded_determinism(self):
        typing = small_typing()
        params = uniform_params(typing, q_m=1e-4, q_s=1e-4, r=1e-3)
        net1, states1, *_ = generated_network(params, typing, T=10, rng=np.random.default_rng(42))
        net2, states2, *_ = generated_network(params, typing, T=10, rng=np.random.default_rng(42))
        assert net1.T == net2.T and np.array_equal(net1.keys, net2.keys)
        np.testing.assert_array_equal(states1, states2)

    def test_block_independence(self):
        # changing one block's parameters leaves the other blocks'
        # samples untouched
        typing = small_typing()
        base = uniform_params(typing, q_m=1e-4, q_s=1e-4, r=1e-3)
        changed = base.put([0], known_start(0.1, 0.1, 0.1, seasonal_state(3, 0.2, np.zeros(3))))  # a:a
        *_, counts1 = generated_network(base, typing, T=15, rng=np.random.default_rng(9))
        *_, counts2 = generated_network(changed, typing, T=15, rng=np.random.default_rng(9))
        assert typing.blocks()[0][1:] == (("a", "b"), ("b", "b"))
        np.testing.assert_array_equal(counts1[1:], counts2[1:])

    def test_two_fixed_density_blocks_concentrate(self):
        rng = np.random.default_rng(13)
        ids = tuple(f"a{i}" for i in range(50)) + tuple(f"b{i}" for i in range(10))
        typing = VertexTyping({v: v[0] for v in ids})
        # n(a,a) = 1225, n(a,b) = 500, n(b,b) = 45
        mu0 = [seasonal_state(3, bias, np.zeros(3)) for bias in (0.2, 0.8, 0.5)]  # a:a, a:b, b:b
        params = ParamStack(3, [0] * 3, [0] * 3, [0] * 3, mu0, np.zeros((3, 3, 3)))
        net, *_ = generated_network(params, typing, T=100, rng=rng)
        density = extract_block_series(net).counts.mean(axis=1) / [1225, 500, 45]
        assert density[0] == pytest.approx(0.2, abs=0.03)
        assert density[1] == pytest.approx(0.8, abs=0.03)

    def test_requires_params_for_active_blocks(self, rng):
        # one parameter row per block of the typing, no more, no fewer
        typing = small_typing()
        params = uniform_params(typing)
        for rows in ([0, 2], [0, 1, 2, 2]):
            with pytest.raises(ValueError, match="rows for the typing's 3 blocks"):
                generate_network(params.take(rows), typing, T=2, rng=rng)


def per_step_network(block_params, typing, T, rng):
    """The generator loop as it was first written: three edge arrays per
    step, joined once at the end.  Gives the network and the (B, T, d)
    states, (B, T) densities and (B, T) counts of its blocks."""
    active = [p for p in typing.pairs() if block_pairs(typing, p)[0].size >= 1]
    streams = rng.spawn(len(active))
    edge_t, edge_i, edge_j = ([np.zeros(0, np.int64)] for _ in range(3))
    rows = []
    for b, (p, stream) in enumerate(zip(active, streams)):
        vi, vj = block_pairs(typing, p)

        def draw(t, e):
            present = np.flatnonzero(stream.random(vi.size) < e)
            edge_t.append(np.full(present.size, t + 1))
            edge_i.append(vi[present])
            edge_j.append(vj[present])
            return present.size

        rows.append(_sample_block(block_params, b, T, stream, draw))
    network = network_of_edges(
        typing, T, np.concatenate(edge_t), np.concatenate(edge_i), np.concatenate(edge_j)
    )
    return (network, *(np.array(field) for field in zip(*rows)))


def typing_with_lone_vertex():
    ids = ("a0", "a1", "a2", "b0", "b1", "c0")
    return VertexTyping({v: v[0] for v in ids})


@pytest.mark.parametrize(
    "typing,T,seed",
    [
        (small_typing(), 25, 1),
        (small_typing(), 25, 2),
        (small_typing(), 25, 3),
        (typing_with_lone_vertex(), 25, 4),  # no (c, c) block
        (small_typing(), 0, 5),
    ],
)
def test_network_matches_per_step_loop(typing, T, seed):
    params = uniform_params(typing, q_m=1e-3, q_s=1e-3, r=1e-2)
    net, *truth = generated_network(params, typing, T, np.random.default_rng(seed))
    ref_net, *ref_truth = per_step_network(params, typing, T, np.random.default_rng(seed))
    assert np.array_equal(net.keys, ref_net.keys)
    assert net.T == T and len(truth[0]) == len(typing.blocks()[0])
    for got, want in zip(truth, ref_truth, strict=True):
        np.testing.assert_array_equal(got, want)


def typing_out_of_type_order():
    # vertices of different types interleaved, so a cross-type block
    # lists some pairs higher vertex first
    ids = ("b0", "a0", "c0", "b1", "a1", "a2", "c1", "b2")
    return VertexTyping({v: v[0] for v in ids})


@pytest.mark.parametrize(
    "typing,T,seed",
    [
        (small_typing(), 25, 1),
        (small_typing(), 40, 2),
        (typing_with_lone_vertex(), 25, 3),
        (typing_out_of_type_order(), 25, 4),
        (typing_out_of_type_order(), 60, 5),
        (typing_out_of_type_order(), 0, 6),
    ],
)
def test_network_matches_reference_generator(typing, T, seed):
    params = uniform_params(typing, q_m=1e-3, q_s=1e-3, r=1e-2)
    net, *truth = generated_network(params, typing, T, np.random.default_rng(seed))
    ref_net, *ref_truth = generator_reference.generate_network(
        params, typing, T, np.random.default_rng(seed)
    )
    assert net.T == ref_net.T == T
    assert np.array_equal(net.keys, ref_net.keys)
    assert len(truth[0]) == len(typing.blocks()[0])
    for got, want in zip(truth, ref_truth, strict=True):
        np.testing.assert_array_equal(got, want)
