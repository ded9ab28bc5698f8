from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdsbm.generator import seasonal_state
from sdsbm.graph_model import (
    CHUNK_ROWS,
    BlockStack,
    DynamicNetwork,
    VertexTyping,
    block_pairs,
    extract_block_series,
)

from conftest import edge_arrays, gaps_as_nan, generated_network, known_start, network_of_edges


def network(typing, snapshots):
    """DynamicNetwork whose snapshot t holds the vertex-id pairs
    ``snapshots[t - 1]``."""
    index = typing.vertex_index()
    edges = [(t, index[u], index[v]) for t, snap in enumerate(snapshots, 1) for u, v in snap]
    t, i, j = (np.array(c, dtype=np.int64) for c in zip(*edges)) if edges else ([], [], [])
    return network_of_edges(typing, len(snapshots), t, i, j)


def two_type_typing():
    return VertexTyping({"1": "a", "2": "a", "3": "b"})


def typing_of_sizes(**sizes):
    ids = tuple(f"{label}{k}" for label, size in sizes.items() for k in range(size))
    return VertexTyping({v: v.rstrip("0123456789") for v in ids})


def blocks_as_lists(typing):
    pairs, n = typing.blocks()
    assert n.dtype == np.int64
    return list(pairs), n.tolist()


class TestPossibleEdges:
    def test_same_type(self):
        assert blocks_as_lists(typing_of_sizes(a=4)) == ([("a", "a")], [6])

    def test_cross_type(self):
        assert blocks_as_lists(typing_of_sizes(b=5, a=3)) == (
            [("a", "a"), ("a", "b"), ("b", "b")], [3, 15, 10]
        )

    def test_single_vertex_block_has_no_edges(self):
        assert blocks_as_lists(typing_of_sizes(a=1, b=2, c=1)) == (
            [("a", "b"), ("a", "c"), ("b", "b"), ("b", "c")], [2, 1, 1, 2]
        )
        assert blocks_as_lists(typing_of_sizes(a=1)) == ([], [])


class TestTyping:
    def test_canonical_orders(self):
        # the vertex order is the mapping's, not the ids' sorted order
        typing = VertexTyping({"3": "b", "1": "a", "2": "a"})
        assert typing.vertex_ids == ("3", "1", "2")
        assert typing.vertex_index() == {"3": 0, "1": 1, "2": 2}
        assert typing.types == ("a", "b")
        assert typing.pairs() == (("a", "a"), ("a", "b"), ("b", "b"))
        assert typing.kind.tolist() == [1, 0, 0]
        assert [m.tolist() for m in typing.by_type] == [[1, 2], [0]]
        # the same labels in another vertex order are another typing
        assert typing != VertexTyping({"1": "a", "2": "a", "3": "b"})

    def test_keeps_its_own_copy_of_the_mapping(self):
        type_of = {"1": "a", "2": "a", "3": "b"}
        typing = VertexTyping(type_of)
        type_of["1"] = "b"
        type_of["4"] = "a"
        assert dict(typing.type_of) == {"1": "a", "2": "a", "3": "b"}
        assert typing.vertex_ids == ("1", "2", "3")
        assert typing.kind.tolist() == [0, 0, 1]
        assert typing == VertexTyping({"1": "a", "2": "a", "3": "b"})
        assert typing != VertexTyping(type_of)
        with pytest.raises(TypeError):
            typing.type_of["1"] = "b"

    def test_rejects_empty_typing(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            VertexTyping({})

    @pytest.mark.parametrize("label", ["a:b", ":", "b:"])
    def test_rejects_label_with_colon(self, label):
        # ("a", "b:c") and ("a:b", "c") would both be written as block a:b:c
        with pytest.raises(ValueError, match=f"type label {label!r} contains ':'"):
            VertexTyping({"1": "a", "2": label})


class TestDynamicNetwork:
    def test_from_keys_sorts_and_drops_repeats(self):
        V = 3
        keys = np.array([(2 * V + 1) * V + 2, (1 * V + 0) * V + 2, (2 * V + 1) * V + 2], dtype=np.int64)
        net = DynamicNetwork.from_keys(two_type_typing(), 2, keys)
        assert net.keys.tolist() == [(1 * V + 0) * V + 2, (2 * V + 1) * V + 2]
        # snapshot 1 holds ("1", "3"), snapshot 2 ("2", "3")
        assert [a.tolist() for a in edge_arrays(net)] == [[1, 2], [0, 1], [2, 2]]

    @pytest.mark.parametrize(
        "keys,message",
        [
            ([14, 11], "sorted, with no repeats"),
            ([11, 11], "sorted, with no repeats"),
            ([5], "snapshot index outside 1..1"),
            ([18], "snapshot index outside 1..1"),
        ],
    )
    def test_rejects_keys_out_of_order_or_range(self, keys, message):
        with pytest.raises(ValueError, match=message):
            DynamicNetwork(two_type_typing(), 1, np.array(keys, dtype=np.int64))

    def test_normalises_edge_order(self):
        net = network_of_edges(two_type_typing(), 1, [1, 1], [2, 0], [0, 2])
        assert [a.tolist() for a in edge_arrays(net)] == [[1], [0], [2]]  # ("1", "3")


class TestExtractBlockSeries:
    def test_two_type_example(self):
        # the single-vertex type b has no (b, b) edges, so that block is left out
        net = network(two_type_typing(), (frozenset({("1", "2"), ("2", "3")}),))
        stack = extract_block_series(net)
        assert stack.pairs == (("a", "a"), ("a", "b"))
        assert stack.n.tolist() == [1.0, 2.0]
        assert stack.counts.tolist() == [[1.0], [1.0]]

    def test_no_block_with_possible_edges_gives_empty_stack(self):
        typing = VertexTyping({"1": "a"})
        stack = extract_block_series(network(typing, (frozenset(),)))
        assert len(stack) == 0 and stack.counts.shape == (0, 1)

    def test_empty_snapshots(self):
        net = network(two_type_typing(), (frozenset(), frozenset()))
        assert extract_block_series(net).counts.tolist() == [[0.0, 0.0]] * 2

    def test_complete_same_type_block(self):
        typing = VertexTyping({v: "a" for v in "123"})
        full = frozenset({("1", "2"), ("1", "3"), ("2", "3")})
        net = network(typing, (full, full))
        stack = extract_block_series(net)
        assert stack.n.tolist() == [3.0]
        assert stack.counts.tolist() == [[3.0, 3.0]]

    def test_missing_snapshots_become_nan(self):
        net = network(two_type_typing(), (frozenset({("1", "2")}), frozenset()))
        counts = extract_block_series(net).counts
        assert counts[:, 1].tolist() == [0.0, 0.0]
        counts = gaps_as_nan(counts)
        assert np.isnan(counts[:, 1]).all() and not np.isnan(counts[:, 0]).any()

    def test_pure_function(self):
        net = network(two_type_typing(), (frozenset({("1", "2")}),))
        first = extract_block_series(net)
        second = extract_block_series(net)
        assert first.pairs == second.pairs
        np.testing.assert_array_equal(first.counts, second.counts)


def interleaved_typing(n=30):
    """Types interleaved and out of label order, so a block's pairs are
    not all listed lower vertex first."""
    ids = tuple(f"v{k}" for k in range(n))
    return VertexTyping({v: "cba"[k % 3] for k, v in enumerate(ids)})


def sampled_network(size, T=40, empty=frozenset()):
    """A network of ``size`` distinct edges drawn over T snapshots,
    none in an ``empty`` snapshot, handed over in shuffled order with
    endpoints in either order."""
    rng = np.random.default_rng(size)
    typing = interleaved_typing()
    V = len(typing.vertex_ids)
    i, j = np.triu_indices(V, k=1)
    open_steps = np.array([t for t in range(1, T + 1) if t not in empty])
    cells = rng.choice(open_steps.size * i.size, size, replace=False)
    t, pair = open_steps[cells // i.size], cells % i.size
    flip = rng.random(size) < 0.5
    u, v = np.where(flip, j[pair], i[pair]), np.where(flip, i[pair], j[pair])
    return network_of_edges(typing, T, t, u, v)


SIZES = [0, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("missing", [frozenset(), frozenset({1, 7, 40})])
def test_chunked_extraction_matches_whole_network_counts(size, missing):
    net = sampled_network(size, empty=missing)
    assert net.keys.size == size
    typing = net.typing
    label = {name: k for k, name in enumerate(typing.types)}
    kind = np.array([label[typing.type_of[v]] for v in typing.vertex_ids])
    t, u, v = edge_arrays(net)
    lo, hi = np.minimum(kind[u], kind[v]), np.maximum(kind[u], kind[v])
    pairs = typing.pairs()
    block = np.array([pairs.index((typing.types[a], typing.types[b])) for a, b in zip(lo, hi)], dtype=np.int64)
    want = np.bincount(block * net.T + t - 1, minlength=len(pairs) * net.T)
    want = want.reshape(len(pairs), net.T).astype(float)
    stack = extract_block_series(net)
    assert stack.pairs == pairs and stack.counts.flags.c_contiguous
    np.testing.assert_array_equal(stack.counts, want)
    # the missing-observation policy makes gaps of exactly the snapshots with no edge
    empty = sorted(set(range(1, net.T + 1)) - set(t.tolist()))
    assert missing <= set(empty)
    want[:, [s - 1 for s in empty]] = np.nan
    np.testing.assert_array_equal(gaps_as_nan(stack.counts), want)


@pytest.mark.parametrize("size", SIZES)
def test_edge_chunks_walk_the_keys_in_order(size):
    net = sampled_network(size)
    chunks = list(net.edge_chunks())
    assert all(0 < len(t) <= CHUNK_ROWS for t, _, _ in chunks)
    assert len(chunks) == -(-size // CHUNK_ROWS)
    # the walked edges pack back into the keys, in order
    t, u, v = edge_arrays(net)
    V = len(net.typing.vertex_ids)
    assert np.array_equal((t * V + u) * V + v, net.keys)
    assert (u < v).all()
    assert ((t >= 1) & (t <= net.T)).all()


@st.composite
def random_network(draw):
    n_vertices = draw(st.integers(min_value=2, max_value=8))
    k = draw(st.integers(min_value=1, max_value=3))
    labels = [f"t{i}" for i in range(k)]
    ids = tuple(str(i) for i in range(n_vertices))
    typing = VertexTyping({v: labels[draw(st.integers(0, k - 1))] for v in ids})
    T = draw(st.integers(min_value=0, max_value=4))
    all_pairs = [
        (ids[i], ids[j])
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
    ]
    snapshots = tuple(
        frozenset(draw(st.sets(st.sampled_from(all_pairs)))) if all_pairs else frozenset()
        for _ in range(T)
    )
    return network(typing, snapshots)


@settings(max_examples=60, deadline=None)
@given(random_network())
def test_block_counts_conserve_total_edges(net):
    stack = extract_block_series(net)
    pairs, n = net.typing.blocks()
    assert stack.pairs == pairs and stack.n.tolist() == n.tolist()
    totals = stack.counts.sum(axis=0)
    per_snapshot = np.bincount(edge_arrays(net)[0], minlength=net.T + 1)
    for t in range(1, net.T + 1):
        assert totals[t - 1] == per_snapshot[t]


@st.composite
def shuffled_typing(draw):
    """1-6 types of 1-6 vertices each, the vertices in shuffled order."""
    labels = draw(st.lists(st.text("abAB0\u00e9 ", min_size=1, max_size=3),
                           min_size=1, max_size=6, unique=True))
    type_of = {
        f"v{label}_{k}": label
        for label in labels
        for k in range(draw(st.integers(min_value=1, max_value=6)))
    }
    return VertexTyping({v: type_of[v] for v in draw(st.permutations(list(type_of)))})


@settings(max_examples=200, deadline=None)
@given(shuffled_typing())
def test_blocks_and_block_pairs_match_all_vertex_pairs(typing):
    label = [typing.type_of[v] for v in typing.vertex_ids]
    members = {}  # block -> its vertex pairs, the lower-label member first
    for u in range(len(label)):
        for v in range(u + 1, len(label)):
            first, second = (u, v) if label[u] <= label[v] else (v, u)
            members.setdefault((label[first], label[second]), []).append((first, second))
    pairs, n = typing.blocks()
    assert list(pairs) == sorted(members)
    assert n.tolist() == [len(members[pair]) for pair in pairs]
    for pair in pairs:
        first, second = block_pairs(typing, pair)
        assert list(zip(first.tolist(), second.tolist())) == sorted(members[pair])


class ReadCounter(Mapping):
    """A read-only mapping that counts the values read from it."""

    def __init__(self, data):
        self.data = data
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return self.data[key]

    def __iter__(self):
        return iter(self.data)

    def __len__(self):
        return len(self.data)


def test_type_labels_are_read_per_vertex_not_per_block():
    # 40 types x 5 vertices: 820 blocks over 200 vertices; reading the
    # labels once per block would take 820 x 200 reads
    ids = tuple(f"v{k}" for k in range(200))
    type_of = ReadCounter({v: f"t{k % 40:02d}" for k, v in enumerate(ids)})
    typing = VertexTyping(type_of)
    params = known_start(0.0, 0.0, 0.0, seasonal_state(3, 0.5, np.zeros(3))).take([0] * len(typing.blocks()[0]))
    net, *_ = generated_network(params, typing, 1, np.random.default_rng(0))
    stack = extract_block_series(net)
    assert len(stack) == 820 and stack.counts.sum() == net.keys.size
    assert type_of.reads <= 2 * len(ids)


class TestBlockStack:
    def stack(self, counts, n=(2, 10), pairs=(("a", "a"), ("a", "b"))):
        return BlockStack(pairs, np.array(n, dtype=float), np.array(counts, dtype=float))

    def test_rejects_counts_above_n(self):
        with pytest.raises(ValueError, match="block a:a has counts outside"):
            self.stack([[3.0], [1.0]])

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="block a:b has counts outside"):
            self.stack([[1.0], [-1.0]])

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError, match="block a:b has non-integer"):
            self.stack([[1.0, np.nan], [1.0, 1.5]])

    def test_rejects_unordered_pair(self):
        with pytest.raises(ValueError, match="block b:a is not in canonical"):
            self.stack([[0.0], [0.0]], pairs=(("a", "a"), ("b", "a")))

    def test_rejects_block_without_possible_edges(self):
        with pytest.raises(ValueError, match="block a:b has no possible edges"):
            self.stack([[0.0], [0.0]], n=(2, 0))

    def test_names_the_first_bad_block(self):
        with pytest.raises(ValueError, match="block a:b "):
            self.stack([[0.0], [3.5], [4.5]], n=(2, 2, 2), pairs=(("a", "a"), ("a", "b"), ("b", "b")))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="one count row per block"):
            self.stack([1.0, 1.0])

    def test_nan_marks_missing(self):
        stack = self.stack([[1.0, np.nan], [np.nan, np.nan]])
        assert np.isnan(stack.counts).tolist() == [[False, True], [True, True]]
        assert stack.T == 2 and len(stack) == 2

    def test_take_keeps_rows_in_order(self):
        stack = self.stack([[1.0], [7.0]])
        sub = stack.take([1, 0])
        assert sub.pairs == (("a", "b"), ("a", "a"))
        assert sub.n.tolist() == [10.0, 2.0] and sub.counts.tolist() == [[7.0], [1.0]]

    def test_with_gaps_appends_nan_steps(self):
        stack = self.stack([[1.0, np.nan], [7.0, 0.0]])
        ahead = stack.with_gaps(3)
        assert ahead.pairs == stack.pairs and ahead.n.tolist() == [2.0, 10.0]
        np.testing.assert_array_equal(ahead.counts[:, :2], stack.counts)
        assert ahead.T == 5 and np.isnan(ahead.counts[:, 2:]).all()
        assert stack.with_gaps(0).counts.tolist()[1] == [7.0, 0.0]
