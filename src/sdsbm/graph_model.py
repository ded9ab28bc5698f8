"""Typed dynamic networks and the stack of their block edge-count series.

A dynamic network is an ordered sequence of undirected, simple graph
snapshots over a fixed vertex set.  A typing, one vertex -> type
mapping whose order is the vertex order, gives every vertex one of k
type labels; each unordered pair of labels (a, b) with a <= b defines a
*block*: the set of vertex pairs whose edge count the model tracks
through time.  All types here are immutable and all operations pure.

A network holds one int64 key per edge: vertices are integer indices
into the typing's vertex order, and the edge joining u < v in snapshot
t is the key (t * V + u) * V + v, kept sorted and without repeats.
Block counts are summed from the keys ``CHUNK_ROWS`` edges at a time by
``np.bincount`` over (snapshot, block) cells, so no per-edge array other
than the keys is held whole and no per-edge Python object is made.
Those counts form one ``BlockStack`` (all blocks on one time axis), the
only container of block counts that generation, fitting, forecasting
and scoring take.  A network records only edges, so every count it
yields is observed; a gap, a step with no observation, is a NaN count
in a ``BlockStack``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

TypePair = tuple[str, str]


def pair_key(pair: TypePair) -> str:
    """A block's name as written in output files, ``a:b``."""
    return f"{pair[0]}:{pair[1]}"


@dataclass(frozen=True)
class VertexTyping:
    """Assignment of exactly one type label to every vertex, made from
    one vertex -> type mapping ``type_of`` whose order is the canonical
    vertex order (used to normalise undirected edges); the typing keeps
    a read-only copy of it.  The lexicographic order of type labels fixes
    the canonical block order, so block identities are stable across
    runs.  The derived fields are computed once, on construction:
    ``vertex_ids`` holds the vertices in order, ``types`` the labels in
    canonical order, ``kind`` each vertex's index into ``types`` and
    ``by_type`` each type's vertex indices, ascending, in ``types``
    order.  A label may not contain ``:``, which joins the two labels of
    a block's name.
    """

    type_of: Mapping[str, str]
    vertex_ids: tuple[str, ...] = field(init=False, repr=False)
    types: tuple[str, ...] = field(init=False)
    kind: np.ndarray = field(init=False, compare=False, repr=False)
    by_type: tuple[np.ndarray, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        type_of = MappingProxyType(dict(self.type_of))
        if not type_of:
            raise ValueError("typing needs at least one vertex")
        types = tuple(sorted(set(type_of.values())))
        joined = [label for label in types if ":" in label]
        if joined:
            raise ValueError(f"type label {joined[0]!r} contains ':', which joins "
                             "the two labels of a block name")
        index = {label: k for k, label in enumerate(types)}
        kind = np.array([index[label] for label in type_of.values()], dtype=np.int64)
        by_type = np.split(np.argsort(kind, kind="stable"), np.cumsum(np.bincount(kind))[:-1])
        for name, value in (("type_of", type_of), ("vertex_ids", tuple(type_of)),
                            ("types", types), ("kind", kind), ("by_type", tuple(by_type))):
            object.__setattr__(self, name, value)

    def pairs(self) -> tuple[TypePair, ...]:
        """All unordered type pairs (a, b) with a <= b, in canonical order."""
        labels = self.types
        return tuple(
            (labels[i], labels[j])
            for i in range(len(labels))
            for j in range(i, len(labels))
        )

    def blocks(self) -> tuple[tuple[TypePair, ...], np.ndarray]:
        """The blocks: the type pairs with at least one possible edge, in
        canonical order, and their possible-edge counts n as an int array.

        n is ``s * (s - 1) / 2`` within a type of s vertices (no
        self-loops) and ``s_a * s_b`` across two types, so a pair of one
        single-vertex type is no block.
        """
        size = {label: m.size for label, m in zip(self.types, self.by_type)}
        n = {(a, b): size[a] * (size[a] - 1) // 2 if a == b else size[a] * size[b]
             for a, b in self.pairs()}
        blocks = {pair: count for pair, count in n.items() if count >= 1}
        return tuple(blocks), np.array(list(blocks.values()), dtype=np.int64)

    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertex_ids)}


# Each edge is one int64 key, (t * V + u) * V + v for V vertices, so
# (T + 1) * V**2 must fit.
_INT64_KEYS = 2**63

# Edges converted, walked or counted at a time: per-edge arrays other
# than the keys are never built for more than this many edges at once.
CHUNK_ROWS = 4096


def max_snapshots(n_vertices: int) -> int:
    """The most snapshots whose edge keys fit in int64."""
    return _INT64_KEYS // (n_vertices * n_vertices) - 1


def check_snapshots(T: int, n_vertices: int) -> None:
    """Refuse more snapshots than int64 edge keys can index."""
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


def decode_keys(keys, n_vertices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(t, u, v)`` arrays of the edges whose keys for V vertices
    ``keys`` holds: the inverse of ``edge_keys``."""
    t, rest = np.divmod(keys, n_vertices * n_vertices)
    return (t, *np.divmod(rest, n_vertices))


@dataclass(frozen=True)
class DynamicNetwork:
    """Sequence of undirected simple-graph snapshots over one vertex set.

    The edges are one sorted int64 array ``keys`` with no repeats: for V
    vertices, the key ``(t * V + u) * V + v`` stands for the edge joining
    vertices ``u < v`` (indices into the typing's vertex order) in
    snapshot ``t`` (1-based, at most ``T``).  The keys are the whole
    network.  Build one with :meth:`from_keys`, and read its edges only
    through :meth:`edge_chunks`, which decodes the keys a chunk at a
    time.
    """

    typing: VertexTyping
    T: int
    keys: np.ndarray

    def __post_init__(self) -> None:
        V = len(self.typing.vertex_ids)
        check_snapshots(self.T, V)
        keys = self.keys
        if keys.dtype != np.int64 or keys.ndim != 1:
            raise ValueError("edge keys must be a one-dimensional int64 array")
        if keys.size and (keys[0] // (V * V) < 1 or keys[-1] // (V * V) > self.T):
            raise ValueError(f"snapshot index outside 1..{self.T}")
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("edge keys must be sorted, with no repeats")

    @classmethod
    def from_keys(cls, typing: VertexTyping, T: int, keys: np.ndarray) -> DynamicNetwork:
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
        return cls(typing=typing, T=T, keys=keys)

    def edge_chunks(self):
        """The ``(t, u, v)`` arrays of at most ``CHUNK_ROWS`` edges at a
        time, in key order."""
        V = len(self.typing.vertex_ids)
        for start in range(0, self.keys.size, CHUNK_ROWS):
            yield decode_keys(self.keys[start:start + CHUNK_ROWS], V)


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

    Every block of the typing (see ``VertexTyping.blocks``) yields a row,
    in canonical block order; each undirected edge is counted once.
    Every count is observed: a caller that reads some steps as gaps sets
    their counts to NaN.
    """
    typing = network.typing
    pairs, n = typing.blocks()
    label = {name: k for k, name in enumerate(typing.types)}
    # a type pair that is no block holds no edge, so its entry is never read
    block_of = np.full((len(label), len(label)), -1, dtype=np.int64)
    for p, (a, b) in enumerate(pairs):
        block_of[label[a], label[b]] = block_of[label[b], label[a]] = p
    kind = typing.kind
    T, B = network.T, len(pairs)
    cells = np.zeros(T * B, dtype=np.int64)  # counts as (T, B), row t - 1
    for t, u, v in network.edge_chunks():
        # the chunk's edges are sorted by t, so its cells start at row t[0] - 1
        start = (int(t[0]) - 1) * B
        chunk = np.bincount((t - 1) * B + block_of[kind[u], kind[v]] - start)
        cells[start:start + chunk.size] += chunk
    counts = np.ascontiguousarray(cells.reshape(T, B).T, dtype=float)
    return BlockStack(pairs, n, counts)


def block_pairs(typing: VertexTyping, pair: TypePair) -> tuple[np.ndarray, np.ndarray]:
    """All possible vertex pairs of a block in canonical order, as two
    arrays of vertex indices (each pair's first member, then its second)."""
    a, b = pair
    ma = typing.by_type[typing.types.index(a)]
    if a == b:
        i, j = np.triu_indices(ma.size, k=1)
        return ma[i], ma[j]
    mb = typing.by_type[typing.types.index(b)]
    return np.repeat(ma, mb.size), np.tile(mb, ma.size)
