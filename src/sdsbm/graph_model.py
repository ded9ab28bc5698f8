"""Typed dynamic networks and the stack of their block edge-count series.

A dynamic network is an ordered sequence of undirected, simple graph
snapshots over a fixed vertex set.  Every vertex carries one of k type
labels, and each unordered pair of labels (a, b) with a <= b defines a
*block*: the set of vertex pairs whose edge count the model tracks
through time.  All types here are immutable after construction and all
operations are pure.

A network holds one int64 key per edge: vertices are integer indices
into the typing's vertex order, and the edge joining u < v in snapshot
t is the key (t * V + u) * V + v, kept sorted and without repeats.
Block counts are summed from the keys ``CHUNK_ROWS`` edges at a time by
``np.bincount`` over (snapshot, block) cells, so no per-edge array other
than the keys is held whole and no per-edge Python object is made.
Those counts form one ``BlockStack`` (all blocks on one time axis), the
only container of block counts that generation, fitting, forecasting
and scoring take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

TypePair = tuple[str, str]


def pair_key(pair: TypePair) -> str:
    """A block's name as written in output files, ``a:b``."""
    return f"{pair[0]}:{pair[1]}"


@dataclass(frozen=True)
class VertexTyping:
    """Assignment of exactly one type label to every vertex.

    ``vertex_ids`` fixes the canonical vertex order (used to normalise
    undirected edges) and the lexicographic order of type labels fixes
    the canonical block order, so block identities are stable across
    runs.
    """

    vertex_ids: tuple[str, ...]
    type_of: Mapping[str, str]

    def __post_init__(self) -> None:
        if len(self.vertex_ids) == 0:
            raise ValueError("typing needs at least one vertex")
        if len(set(self.vertex_ids)) != len(self.vertex_ids):
            raise ValueError("duplicate vertex ids in typing")
        missing = [v for v in self.vertex_ids if v not in self.type_of]
        if missing:
            raise ValueError(f"vertices without a type label: {missing[:5]}")
        extra = set(self.type_of) - set(self.vertex_ids)
        if extra:
            raise ValueError(f"type labels for unknown vertices: {sorted(extra)[:5]}")

    @property
    def types(self) -> tuple[str, ...]:
        """Type labels in canonical (lexicographic) order."""
        return tuple(sorted(set(self.type_of.values())))

    def members(self, label: str) -> tuple[str, ...]:
        return tuple(v for v in self.vertex_ids if self.type_of[v] == label)

    def size(self, label: str) -> int:
        return sum(1 for v in self.vertex_ids if self.type_of[v] == label)

    def pairs(self) -> tuple[TypePair, ...]:
        """All unordered type pairs (a, b) with a <= b, in canonical order."""
        labels = self.types
        return tuple(
            (labels[i], labels[j])
            for i in range(len(labels))
            for j in range(i, len(labels))
        )

    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertex_ids)}


def possible_edges(size_a: int, size_b: int, same_type: bool) -> int:
    """Number of possible undirected edges in a block.

    ``size_a * (size_a - 1) / 2`` within one type (no self-loops),
    ``size_a * size_b`` across two types.
    """
    if size_a < 1 or size_b < 1:
        raise ValueError("block sizes must be >= 1 (a typeless block has no series)")
    if same_type:
        if size_a != size_b:
            raise ValueError("same-type block must have equal sizes")
        return size_a * (size_a - 1) // 2
    return size_a * size_b


def pair_possible_edges(typing: VertexTyping, pair: TypePair) -> int:
    a, b = pair
    if a == b:
        return possible_edges(typing.size(a), typing.size(a), same_type=True)
    return possible_edges(typing.size(a), typing.size(b), same_type=False)


# Each edge is one int64 key, (t * V + u) * V + v for V vertices, so
# (T + 1) * V**2 must fit.
_INT64_KEYS = 2**63

# Edges converted, walked or counted at a time: per-edge arrays other
# than the keys are never built for more than this many edges at once.
CHUNK_ROWS = 4096


def max_snapshots(n_vertices: int) -> int:
    """The most snapshots whose edge keys fit in int64."""
    return _INT64_KEYS // (n_vertices * n_vertices) - 1


def _check_snapshots(T: int, n_vertices: int) -> None:
    if T > max_snapshots(n_vertices):
        raise ValueError(
            f"{T} snapshots of {n_vertices} vertices are too many to index edges in int64"
        )


def edge_keys(t, i, j, n_vertices: int) -> np.ndarray:
    """The keys ``(t * V + min(i, j)) * V + max(i, j)`` of the edges
    ``(t[k], i[k], j[k])`` for V vertices, packed in place in one new
    int64 array."""
    key = np.array(t, dtype=np.int64)
    key *= n_vertices
    key += np.minimum(i, j)
    key *= n_vertices
    key += np.maximum(i, j)
    return key


@dataclass(frozen=True)
class DynamicNetwork:
    """Sequence of undirected simple-graph snapshots over one vertex set.

    The edges are one sorted int64 array ``keys`` with no repeats: for V
    vertices, the key ``(t * V + u) * V + v`` stands for the edge joining
    vertices ``u < v`` (indices into the typing's vertex order) in
    snapshot ``t`` (1-based, at most ``T``).  Build one with
    :meth:`from_edges` or :meth:`from_keys`.  ``edge_t``, ``edge_u`` and
    ``edge_v`` are derived on request; :meth:`edge_chunks` walks them a
    chunk at a time.  ``missing`` holds 1-based snapshot indices for
    which no observation exists (as opposed to an observed empty
    graph); those propagate as NaN counts.
    """

    typing: VertexTyping
    T: int
    keys: np.ndarray
    missing: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        V = len(self.typing.vertex_ids)
        _check_snapshots(self.T, V)
        keys = self.keys
        if keys.dtype != np.int64 or keys.ndim != 1:
            raise ValueError("edge keys must be a one-dimensional int64 array")
        if keys.size and (keys[0] // (V * V) < 1 or keys[-1] // (V * V) > self.T):
            raise ValueError(f"snapshot index outside 1..{self.T}")
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("edge keys must be sorted, with no repeats")
        bad = [t for t in self.missing if not 1 <= t <= self.T]
        if bad:
            raise ValueError(f"missing indices out of range: {sorted(bad)}")
        if self.missing:
            per_snapshot = self.edges_per_snapshot()
            busy = [t for t in sorted(self.missing) if per_snapshot[t - 1]]
            if busy:
                raise ValueError(f"snapshot {busy[0]} marked missing but has edges")

    @classmethod
    def from_keys(
        cls,
        typing: VertexTyping,
        T: int,
        keys: np.ndarray,
        missing: frozenset[int] = frozenset(),
    ) -> DynamicNetwork:
        """Network of the edges whose int64 keys ``keys`` holds, in any
        order and with repeats.  ``keys`` is sorted in place and, when it
        has no repeats, becomes the network's."""
        # a sort in place: faster here than np.unique, whose hash table
        # (numpy >= 2.3) is about 15x slower than a sort on these keys
        keys.sort()
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        if not first.all():
            keys = keys[first]
        return cls(typing=typing, T=T, keys=keys, missing=missing)

    @classmethod
    def from_edges(
        cls,
        typing: VertexTyping,
        T: int,
        t,
        i,
        j,
        missing: frozenset[int] = frozenset(),
    ) -> DynamicNetwork:
        """Network whose snapshot ``t[k]`` holds an edge between vertex
        indices ``i[k]`` and ``j[k]``, in any order and with repeats."""
        V = len(typing.vertex_ids)
        _check_snapshots(T, V)  # before packing, which would overflow
        t, i, j = (np.asarray(x, dtype=np.int64) for x in (t, i, j))
        if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= V):
            raise ValueError("edge endpoint index not in typing")
        if t.size and (t.min() < 1 or t.max() > T):
            raise ValueError(f"snapshot index outside 1..{T}")
        loops = np.flatnonzero(i == j)
        if loops.size:
            k = loops[0]
            raise ValueError(
                f"self-loop on vertex {typing.vertex_ids[i[k]]!r} in snapshot {t[k]}"
            )
        return cls.from_keys(typing, T, edge_keys(t, i, j, V), missing=missing)

    @property
    def edge_t(self) -> np.ndarray:
        """Each edge's snapshot, in key order."""
        return self.keys // len(self.typing.vertex_ids) ** 2

    @property
    def edge_u(self) -> np.ndarray:
        """Each edge's lower vertex index, in key order."""
        V = len(self.typing.vertex_ids)
        return self.keys // V % V

    @property
    def edge_v(self) -> np.ndarray:
        """Each edge's higher vertex index, in key order."""
        return self.keys % len(self.typing.vertex_ids)

    def edge_chunks(self):
        """The ``(t, u, v)`` arrays of at most ``CHUNK_ROWS`` edges at a
        time, in key order."""
        V = len(self.typing.vertex_ids)
        for start in range(0, self.keys.size, CHUNK_ROWS):
            t, rest = np.divmod(self.keys[start:start + CHUNK_ROWS], V * V)
            yield (t, *np.divmod(rest, V))

    def edges_per_snapshot(self) -> np.ndarray:
        """The (T,) number of edges in each snapshot t = 1..T."""
        V2 = len(self.typing.vertex_ids) ** 2
        # snapshot t's last possible key is (t + 1) * V**2 - 1
        last_keys = np.arange(1, self.T + 1) * V2 + (V2 - 1)
        ends = np.searchsorted(self.keys, last_keys, side="right")
        return np.diff(ends, prepend=0)

    @property
    def snapshots(self) -> tuple[frozenset[tuple[str, str]], ...]:
        """Snapshot t's edges as vertex-id pairs ``(u, v)``, with ``u``
        before ``v`` in the typing's vertex order."""
        ids = np.array(self.typing.vertex_ids, dtype=object)
        edges = list(zip(ids[self.edge_u], ids[self.edge_v]))
        ends = np.cumsum(self.edges_per_snapshot()).tolist()
        return tuple(frozenset(edges[a:b]) for a, b in zip([0, *ends], ends))


@dataclass(frozen=True)
class BlockStack:
    """The count series of B blocks on one time axis.

    ``counts`` is (B, T) with NaN for gaps; every present count is an
    integer in ``[0, n]``.  ``n`` holds the (B,) possible-edge counts,
    each >= 1, and ``pairs`` the blocks' type pairs in row order, each
    canonical (a <= b).  A single block is a stack of one.
    """

    pairs: tuple[TypePair, ...]
    n: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        pairs = tuple(self.pairs)
        n = np.asarray(self.n, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if n.shape != (len(pairs),) or counts.ndim != 2 or len(counts) != len(pairs):
            raise ValueError("a block stack needs one pair, one n and one count row per block")
        present = ~np.isnan(counts)
        outside = present & ((counts < 0) | (counts > n[:, None]))
        fractional = present & (counts != np.floor(counts))
        faults = (
            ([not a <= b for a, b in pairs], "is not in canonical (a <= b) order"),
            (~(n >= 1), "has no possible edges"),
            (outside.any(axis=1), "has counts outside [0, n]"),
            (fractional.any(axis=1), "has non-integer counts"),
        )
        for bad, fault in faults:
            if np.any(bad):
                raise ValueError(f"block {pair_key(pairs[int(np.argmax(bad))])} {fault}")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)

    @property
    def T(self) -> int:
        return int(self.counts.shape[1])

    def __len__(self) -> int:
        return len(self.pairs)

    def take(self, idx) -> BlockStack:
        """The stack of blocks ``idx`` (a sequence of row indices)."""
        return BlockStack(tuple(self.pairs[i] for i in idx), self.n[idx], self.counts[idx])

    def with_gaps(self, steps: int) -> BlockStack:
        """The stack with ``steps`` gaps (NaN counts) appended to every
        block; filtered, its appended steps are the count forecast."""
        gaps = np.full((len(self), steps), np.nan)
        return BlockStack(self.pairs, self.n, np.concatenate((self.counts, gaps), axis=1))


def extract_block_series(network: DynamicNetwork) -> BlockStack:
    """Decompose a dynamic network into the stack of its blocks' counts.

    Every unordered type pair (including a = b) with possible edges
    yields a row, in canonical block order; each undirected edge is
    counted once.  A block with no possible edges (a type of a single
    vertex) carries no information and is left out.  Missing snapshots
    become NaN counts in every block.
    """
    typing = network.typing
    pairs = typing.pairs()
    label = {name: k for k, name in enumerate(typing.types)}
    kind = np.array([label[typing.type_of[v]] for v in typing.vertex_ids])
    block_of = np.empty((len(label), len(label)), dtype=np.int64)
    for p, (a, b) in enumerate(pairs):
        block_of[label[a], label[b]] = block_of[label[b], label[a]] = p
    T, B = network.T, len(pairs)
    cells = np.zeros(T * B, dtype=np.int64)  # counts as (T, B), row t - 1
    for t, u, v in network.edge_chunks():
        # the chunk's edges are sorted by t, so its cells start at row t[0] - 1
        start = (int(t[0]) - 1) * B
        chunk = np.bincount((t - 1) * B + block_of[kind[u], kind[v]] - start)
        cells[start:start + chunk.size] += chunk
    counts = np.ascontiguousarray(cells.reshape(T, B).T, dtype=float)
    counts[:, [t - 1 for t in network.missing]] = np.nan
    n = np.array([pair_possible_edges(typing, p) for p in pairs], dtype=float)
    keep = np.flatnonzero(n >= 1)
    return BlockStack(tuple(pairs[k] for k in keep), n[keep], counts[keep])


def block_pairs(typing: VertexTyping, pair: TypePair) -> tuple[np.ndarray, np.ndarray]:
    """All possible vertex pairs of a block in canonical order, as two
    arrays of vertex indices (each pair's first member, then its second)."""
    a, b = pair
    index = typing.vertex_index()
    ma = np.array([index[v] for v in typing.members(a)], dtype=np.int64)
    if a == b:
        i, j = np.triu_indices(ma.size, k=1)
        return ma[i], ma[j]
    mb = np.array([index[v] for v in typing.members(b)], dtype=np.int64)
    return np.repeat(ma, mb.size), np.tile(mb, ma.size)
