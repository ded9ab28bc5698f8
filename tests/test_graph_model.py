import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdsbm.graph_model import (
    BlockStack,
    DynamicNetwork,
    VertexTyping,
    block_pairs,
    extract_block_series,
    pair_possible_edges,
    possible_edges,
)


def network(typing, snapshots, missing=frozenset()):
    """DynamicNetwork whose snapshot t holds the vertex-id pairs
    ``snapshots[t - 1]``."""
    index = typing.vertex_index()
    edges = [(t, index[u], index[v]) for t, snap in enumerate(snapshots, 1) for u, v in snap]
    t, i, j = (np.array(c, dtype=np.int64) for c in zip(*edges)) if edges else ([], [], [])
    return DynamicNetwork.from_edges(typing, len(snapshots), t, i, j, missing=missing)


def two_type_typing():
    return VertexTyping(
        vertex_ids=("1", "2", "3"),
        type_of={"1": "a", "2": "a", "3": "b"},
    )


class TestPossibleEdges:
    def test_same_type(self):
        assert possible_edges(4, 4, same_type=True) == 6

    def test_cross_type(self):
        assert possible_edges(3, 5, same_type=False) == 15

    def test_single_vertex_block_has_no_edges(self):
        assert possible_edges(1, 1, same_type=True) == 0

    @pytest.mark.parametrize("size_a,size_b", [(0, 1), (1, 0), (0, 0)])
    def test_rejects_zero_sizes(self, size_a, size_b):
        with pytest.raises(ValueError):
            possible_edges(size_a, size_b, same_type=False)

    def test_rejects_unequal_same_type(self):
        with pytest.raises(ValueError):
            possible_edges(2, 3, same_type=True)


class TestTyping:
    def test_canonical_orders(self):
        typing = two_type_typing()
        assert typing.types == ("a", "b")
        assert typing.pairs() == (("a", "a"), ("a", "b"), ("b", "b"))
        assert typing.members("a") == ("1", "2")

    def test_requires_type_for_every_vertex(self):
        with pytest.raises(ValueError, match="without a type"):
            VertexTyping(vertex_ids=("1", "2"), type_of={"1": "a"})

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError, match="duplicate"):
            VertexTyping(vertex_ids=("1", "1"), type_of={"1": "a"})


class TestDynamicNetwork:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop on vertex '1' in snapshot 1"):
            DynamicNetwork.from_edges(two_type_typing(), 1, [1], [0], [0])

    def test_rejects_unknown_vertices(self):
        with pytest.raises(ValueError, match="not in typing"):
            DynamicNetwork.from_edges(two_type_typing(), 1, [1], [0], [3])

    def test_normalises_edge_order(self):
        net = DynamicNetwork.from_edges(two_type_typing(), 1, [1, 1], [2, 0], [0, 2])
        assert net.snapshots[0] == frozenset({("1", "3")})
        assert (net.edge_u.tolist(), net.edge_v.tolist()) == ([0], [2])


class TestExtractBlockSeries:
    def test_two_type_example(self):
        # the single-vertex type b has no (b, b) edges, so that block is left out
        net = network(two_type_typing(), (frozenset({("1", "2"), ("2", "3")}),))
        stack = extract_block_series(net)
        assert stack.pairs == (("a", "a"), ("a", "b"))
        assert stack.n.tolist() == [1.0, 2.0]
        assert stack.counts.tolist() == [[1.0], [1.0]]

    def test_no_block_with_possible_edges_gives_empty_stack(self):
        typing = VertexTyping(vertex_ids=("1",), type_of={"1": "a"})
        stack = extract_block_series(network(typing, (frozenset(),)))
        assert len(stack) == 0 and stack.counts.shape == (0, 1)

    def test_empty_snapshots(self):
        net = network(two_type_typing(), (frozenset(), frozenset()))
        assert extract_block_series(net).counts.tolist() == [[0.0, 0.0]] * 2

    def test_complete_same_type_block(self):
        typing = VertexTyping(
            vertex_ids=("1", "2", "3"), type_of={v: "a" for v in "123"}
        )
        full = frozenset({("1", "2"), ("1", "3"), ("2", "3")})
        net = network(typing, (full, full))
        stack = extract_block_series(net)
        assert stack.n.tolist() == [3.0]
        assert stack.counts.tolist() == [[3.0, 3.0]]

    def test_missing_snapshots_become_nan(self):
        net = network(
            two_type_typing(), (frozenset({("1", "2")}), frozenset()), missing=frozenset({2})
        )
        assert np.isnan(extract_block_series(net).counts[:, 1]).all()

    def test_pure_function(self):
        net = network(two_type_typing(), (frozenset({("1", "2")}),))
        first = extract_block_series(net)
        second = extract_block_series(net)
        assert first.pairs == second.pairs
        np.testing.assert_array_equal(first.counts, second.counts)


@st.composite
def random_network(draw):
    n_vertices = draw(st.integers(min_value=2, max_value=8))
    k = draw(st.integers(min_value=1, max_value=3))
    labels = [f"t{i}" for i in range(k)]
    vertex_ids = tuple(str(i) for i in range(n_vertices))
    type_of = {v: labels[draw(st.integers(0, k - 1))] for v in vertex_ids}
    typing = VertexTyping(vertex_ids=vertex_ids, type_of=type_of)
    T = draw(st.integers(min_value=0, max_value=4))
    all_pairs = [
        (vertex_ids[i], vertex_ids[j])
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
    assert stack.pairs == tuple(p for p in net.typing.pairs() if pair_possible_edges(net.typing, p))
    for pair, n in zip(stack.pairs, stack.n):
        assert n == pair_possible_edges(net.typing, pair)
        assert len(block_pairs(net.typing, pair)[0]) == n
    totals = stack.counts.sum(axis=0)
    per_snapshot = np.bincount(net.edge_t, minlength=net.T + 1)
    for t in range(1, net.T + 1):
        assert totals[t - 1] == per_snapshot[t]


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
