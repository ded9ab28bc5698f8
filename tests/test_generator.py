import generator_reference
import numpy as np
import pytest

from sdsbm.generator import (
    GenParams,
    _sample_block,
    default_state,
    generate_block_series,
    generate_network,
    seasonal_state,
    sine_profile,
    step_latent,
)
from sdsbm.graph_model import (
    DynamicNetwork,
    VertexTyping,
    block_pairs,
    extract_block_series,
    pair_possible_edges,
)


class _ExpectationRng:
    """Stand-in rng that returns every draw's expectation."""

    def normal(self, loc, scale):
        return loc

    def binomial(self, n, p):
        return n * p

    def random(self, size):
        return np.full(size, 0.5)


def noiseless(d, init, r=0.0):
    return GenParams(d=d, q_m=0.0, q_s=0.0, r=r, init=init)


class TestGenParams:
    @pytest.mark.parametrize("field", ["q_m", "q_s", "r"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_rejects_bad_variances(self, field, value):
        opts = dict(d=3, q_m=0.0, q_s=0.0, r=0.0, init=default_state(3))
        opts[field] = value
        with pytest.raises(ValueError, match="variances must be"):
            GenParams(**opts)

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
            GenParams(d=3, q_m=0.0, q_s=0.0, r=0.0, init=init)


class TestStepLatent:
    def test_zero_sum_recurrence_d3(self, rng):
        params = noiseless(3, np.array([0.5, 0.1, -0.1]))
        state = params.init
        leads = []
        for _ in range(4):
            state = step_latent(state, params, rng)
            leads.append(state[1])
        assert leads == [0.0, -0.1, 0.1, 0.0]

    def test_zero_noise_keeps_bias(self, rng):
        params = noiseless(4, default_state(4, bias=0.37))
        state = step_latent(params.init, params, rng)
        assert state[0] == 0.37

    def test_rejects_dimension_mismatch(self, rng):
        params = noiseless(3, default_state(3))
        with pytest.raises(ValueError, match="dimension"):
            step_latent(default_state(5), params, rng)

    def test_bias_increment_variance(self):
        # Monte-Carlo check of the bias random walk variance
        rng = np.random.default_rng(7)
        q = 1e-6
        params = GenParams(d=7, q_m=q, q_s=1e-6, r=0.0, init=default_state(7))
        state = params.init
        biases = np.zeros(10_000)
        for i in range(biases.shape[0]):
            state = step_latent(state, params, rng)
            biases[i] = state[0]
        increments = np.diff(np.concatenate(([params.init[0]], biases)))
        assert increments.var() == pytest.approx(q, rel=0.2)

    def test_matches_transition_matrix(self, rng):
        # the sampler's recurrence is exactly x_t = G x_{t-1} in the
        # noiseless case
        from sdsbm.ssm import build_state_space

        d = 5
        init = np.array([0.4, 0.05, -0.02, 0.01, -0.04])
        params = noiseless(d, init)
        ss = build_state_space(d, 10, 0.0, 0.0, 0.0)
        state, vec = init, init
        for _ in range(12):
            state = step_latent(state, params, rng)
            vec = ss.G @ vec
            np.testing.assert_allclose(state, vec, atol=1e-15)


class TestSeasonalStart:
    def test_profile_repeats_noiselessly(self, rng):
        d = 6
        profile = sine_profile(d, 0.1)
        params = noiseless(d, seasonal_state(d, 0.5, profile))
        state = params.init
        for t in range(1, 3 * d + 1):
            state = step_latent(state, params, rng)
            assert state[1] == pytest.approx(profile[t % d], abs=1e-12)

    def test_profile_centering(self):
        st = seasonal_state(4, 0.5, np.array([1.0, 2.0, 3.0, 4.0]))
        # stored window plus the implicit value sums to ~0
        implicit = -st[1:].sum()
        assert st[1:].sum() + implicit == 0.0


class TestGenerateBlockSeries:
    def test_deterministic_core(self):
        params = noiseless(3, default_state(3, bias=0.5))
        series, trace = generate_block_series(params, n=100, T=3, rng=_ExpectationRng())
        assert series.pairs == (("a", "a"),) and series.n.tolist() == [100.0]
        assert series.counts.tolist() == [[50.0, 50.0, 50.0]]
        assert trace.density.tolist() == [0.5, 0.5, 0.5]

    def test_boundary_density(self, rng):
        params = noiseless(3, default_state(3, bias=1.0))
        series, _ = generate_block_series(params, n=20, T=5, rng=rng)
        assert np.all(series.counts == 20.0)

    def test_binomial_moments(self):
        rng = np.random.default_rng(11)
        params = noiseless(4, default_state(4, bias=0.3))
        series, _ = generate_block_series(params, n=1000, T=10_000, rng=rng)
        assert series.counts.mean() == pytest.approx(300.0, rel=0.01)
        assert series.counts.var() == pytest.approx(210.0, rel=0.10)

    def test_density_clamped(self):
        rng = np.random.default_rng(3)
        params = GenParams(d=3, q_m=0.0, q_s=0.0, r=0.5, init=default_state(3, bias=0.5))
        _, trace = generate_block_series(params, n=10, T=200, rng=rng)
        assert trace.density.min() >= 0.0
        assert trace.density.max() <= 1.0

    def test_rejects_bad_sizes(self, rng):
        params = noiseless(3, default_state(3))
        with pytest.raises(ValueError):
            generate_block_series(params, n=0, T=5, rng=rng)
        with pytest.raises(ValueError):
            generate_block_series(params, n=5, T=0, rng=rng)

    def test_zero_sum_window_exact(self):
        # with q_s = 0 each window of d consecutive seasonal values
        # (implicit one included) cancels exactly
        rng = np.random.default_rng(5)
        d = 7
        params = GenParams(
            d=d, q_m=1e-4, q_s=0.0, r=0.0,
            init=seasonal_state(d, 0.5, sine_profile(d, 0.1)),
        )
        _, trace = generate_block_series(params, n=50, T=50, rng=rng)
        states = np.vstack([params.init, trace.states])
        for t in range(1, states.shape[0]):
            window = states[t, 1] + np.sum(states[t - 1, 1:])
            assert window == 0.0


def small_typing():
    ids = tuple(f"a{i}" for i in range(4)) + tuple(f"b{i}" for i in range(3))
    return VertexTyping(
        vertex_ids=ids, type_of={v: v[0] for v in ids}
    )


def uniform_params(typing, d=3, **kw):
    opts = dict(q_m=0.0, q_s=0.0, r=0.0, init=default_state(d, bias=0.5))
    opts.update(kw)
    return {pair: GenParams(d=d, **opts) for pair in typing.pairs()}


class TestGenerateNetwork:
    def test_full_density_gives_complete_blocks(self, rng):
        typing = small_typing()
        params = uniform_params(typing, init=default_state(3, bias=1.0))
        net, _ = generate_network(params, typing, T=2, rng=rng)
        stack = extract_block_series(net)
        assert stack.pairs == (("a", "a"), ("a", "b"), ("b", "b"))
        assert stack.counts.tolist() == [[6.0, 6.0], [12.0, 12.0], [3.0, 3.0]]

    def test_zero_density_gives_empty_graphs(self, rng):
        typing = small_typing()
        params = uniform_params(typing, init=default_state(3, bias=0.0))
        net, _ = generate_network(params, typing, T=3, rng=rng)
        assert all(len(s) == 0 for s in net.snapshots)

    def test_extraction_matches_trace_counts(self, rng):
        typing = small_typing()
        params = uniform_params(typing, q_m=1e-4, q_s=1e-4, r=1e-3)
        net, traces = generate_network(params, typing, T=20, rng=rng)
        stack = extract_block_series(net)
        by_pair = dict(zip(stack.pairs, stack.counts))
        for pair, trace in traces.items():
            np.testing.assert_array_equal(by_pair[pair], trace.counts)

    def test_seeded_determinism(self):
        typing = small_typing()
        params = uniform_params(typing, q_m=1e-4, q_s=1e-4, r=1e-3)
        net1, tr1 = generate_network(params, typing, T=10, rng=np.random.default_rng(42))
        net2, tr2 = generate_network(params, typing, T=10, rng=np.random.default_rng(42))
        assert net1.snapshots == net2.snapshots
        for pair in tr1:
            np.testing.assert_array_equal(tr1[pair].states, tr2[pair].states)

    def test_block_independence(self):
        # changing one block's parameters leaves the other blocks'
        # samples untouched
        typing = small_typing()
        base = uniform_params(typing, q_m=1e-4, q_s=1e-4, r=1e-3)
        changed = dict(base)
        changed[("a", "a")] = GenParams(
            d=3, q_m=0.1, q_s=0.1, r=0.1, init=default_state(3, bias=0.2)
        )
        _, tr1 = generate_network(base, typing, T=15, rng=np.random.default_rng(9))
        _, tr2 = generate_network(changed, typing, T=15, rng=np.random.default_rng(9))
        for pair in (("a", "b"), ("b", "b")):
            np.testing.assert_array_equal(tr1[pair].counts, tr2[pair].counts)

    def test_two_fixed_density_blocks_concentrate(self):
        rng = np.random.default_rng(13)
        ids = tuple(f"a{i}" for i in range(50)) + tuple(f"b{i}" for i in range(10))
        typing = VertexTyping(vertex_ids=ids, type_of={v: v[0] for v in ids})
        # n(a,a) = 1225, n(a,b) = 500, n(b,b) = 45
        params = {
            ("a", "a"): GenParams(d=3, q_m=0, q_s=0, r=0, init=default_state(3, 0.2)),
            ("a", "b"): GenParams(d=3, q_m=0, q_s=0, r=0, init=default_state(3, 0.8)),
            ("b", "b"): GenParams(d=3, q_m=0, q_s=0, r=0, init=default_state(3, 0.5)),
        }
        net, _ = generate_network(params, typing, T=100, rng=rng)
        density = extract_block_series(net).counts.mean(axis=1) / [1225, 500, 45]
        assert density[0] == pytest.approx(0.2, abs=0.03)
        assert density[1] == pytest.approx(0.8, abs=0.03)

    def test_requires_params_for_active_blocks(self, rng):
        typing = small_typing()
        params = uniform_params(typing)
        del params[("a", "b")]
        with pytest.raises(ValueError, match="missing GenParams"):
            generate_network(params, typing, T=2, rng=rng)


def per_step_network(block_params, typing, T, rng):
    """The generator loop as it was first written: three edge arrays per
    step, joined once at the end."""
    active = [p for p in typing.pairs() if pair_possible_edges(typing, p) >= 1]
    streams = rng.spawn(len(active))
    edge_t, edge_i, edge_j = ([np.zeros(0, np.int64)] for _ in range(3))
    traces = {}
    for p, stream in zip(active, streams):
        vi, vj = block_pairs(typing, p)

        def draw(t, e):
            present = np.flatnonzero(stream.random(vi.size) < e)
            edge_t.append(np.full(present.size, t + 1))
            edge_i.append(vi[present])
            edge_j.append(vj[present])
            return present.size

        traces[p] = _sample_block(block_params[p], T, stream, draw)
    network = DynamicNetwork.from_edges(
        typing, T, np.concatenate(edge_t), np.concatenate(edge_i), np.concatenate(edge_j)
    )
    return network, traces


def typing_with_lone_vertex():
    ids = ("a0", "a1", "a2", "b0", "b1", "c0")
    return VertexTyping(vertex_ids=ids, type_of={v: v[0] for v in ids})


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
    net, traces = generate_network(params, typing, T, np.random.default_rng(seed))
    ref_net, ref_traces = per_step_network(params, typing, T, np.random.default_rng(seed))
    for name in ("edge_t", "edge_u", "edge_v"):
        got, want = getattr(net, name), getattr(ref_net, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert net.T == T and traces.keys() == ref_traces.keys()
    for pair, trace in traces.items():
        for field in ("states", "density", "counts"):
            np.testing.assert_array_equal(getattr(trace, field), getattr(ref_traces[pair], field))


def typing_out_of_type_order():
    # vertices of different types interleaved, so a cross-type block
    # lists some pairs higher vertex first
    ids = ("b0", "a0", "c0", "b1", "a1", "a2", "c1", "b2")
    return VertexTyping(vertex_ids=ids, type_of={v: v[0] for v in ids})


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
    net, traces = generate_network(params, typing, T, np.random.default_rng(seed))
    ref_net, ref_traces = generator_reference.generate_network(
        params, typing, T, np.random.default_rng(seed)
    )
    assert net.T == ref_net.T == T
    assert net.keys.dtype == ref_net.keys.dtype and np.array_equal(net.keys, ref_net.keys)
    assert traces.keys() == ref_traces.keys()
    for pair, trace in traces.items():
        for field in ("states", "density", "counts"):
            np.testing.assert_array_equal(getattr(trace, field), getattr(ref_traces[pair], field))
