"""Typed dynamic networks and the stack of their block edge-count series.

A dynamic network is an ordered sequence of undirected, simple graph
snapshots over a fixed vertex set.  Every vertex carries one of k type
labels, and each unordered pair of labels (a, b) with a <= b defines a
*block*: the set of vertex pairs whose edge count the model tracks
through time.  All types here are immutable after construction and all
operations are pure.

Networks are columnar: vertices are integer indices into the typing's
vertex order and the edges of all snapshots are three integer arrays
(snapshot, lower vertex, higher vertex), so block counts come from one
``np.bincount`` over block ids with no per-edge Python objects.  Those
counts form one ``BlockStack`` (all blocks on one time axis), the only
container of block counts that generation, fitting, forecasting and
scoring take.
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


# Edges are de-duplicated and ordered through one int64 key per edge,
# (t * V + u) * V + v for V vertices, so (T + 1) * V**2 must fit.
_INT64_KEYS = 2**63


@dataclass(frozen=True)
class DynamicNetwork:
    """Sequence of undirected simple-graph snapshots over one vertex set.

    The edges are held as three integer arrays of equal length, sorted
    by ``(t, u, v)`` with no repeats: edge k joins vertices
    ``edge_u[k] < edge_v[k]`` (indices into the typing's vertex order)
    in snapshot ``edge_t[k]`` (1-based, at most ``T``).  Build one with
    :meth:`from_edges`.  ``missing`` holds 1-based snapshot indices for
    which no observation exists (as opposed to an observed empty
    graph); those propagate as NaN counts.
    """

    typing: VertexTyping
    T: int
    edge_t: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    missing: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not self.edge_t.shape == self.edge_u.shape == self.edge_v.shape:
            raise ValueError("edge arrays must have one entry per edge")
        bad = [t for t in self.missing if not 1 <= t <= self.T]
        if bad:
            raise ValueError(f"missing indices out of range: {sorted(bad)}")
        if self.missing:
            per_snapshot = np.bincount(self.edge_t, minlength=self.T + 1)
            busy = [t for t in sorted(self.missing) if per_snapshot[t]]
            if busy:
                raise ValueError(f"snapshot {busy[0]} marked missing but has edges")

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
        if T + 1 > _INT64_KEYS // (V * V):
            raise ValueError(
                f"{T} snapshots of {V} vertices are too many to index edges in int64"
            )
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
        # pack (t, u, v) into one int64 key in place, then sort and drop
        # repeats; faster here than np.unique, whose hash table
        # (numpy >= 2.3) is about 15x slower than a sort on these keys
        key = t * V
        key += np.minimum(i, j)
        key *= V
        key += np.maximum(i, j)
        key.sort()
        repeat = np.flatnonzero(key[1:] == key[:-1])
        if repeat.size:
            key = np.delete(key, repeat + 1)
        t, key = np.divmod(key, V * V)
        u, v = np.divmod(key, V)
        return cls(typing=typing, T=T, edge_t=t, edge_u=u, edge_v=v, missing=missing)

    @property
    def snapshots(self) -> tuple[frozenset[tuple[str, str]], ...]:
        """Snapshot t's edges as vertex-id pairs ``(u, v)``, with ``u``
        before ``v`` in the typing's vertex order."""
        ids = np.array(self.typing.vertex_ids, dtype=object)
        edges = list(zip(ids[self.edge_u], ids[self.edge_v]))
        cuts = np.searchsorted(self.edge_t, np.arange(1, self.T + 2)).tolist()
        return tuple(frozenset(edges[a:b]) for a, b in zip(cuts, cuts[1:]))


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
    block = block_of[kind[network.edge_u], kind[network.edge_v]]
    T = network.T
    counts = np.bincount(block * T + network.edge_t - 1, minlength=len(pairs) * T)
    counts = counts.reshape(len(pairs), T).astype(float)
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
