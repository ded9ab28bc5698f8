"""Reference network generator: the loop that sampled one block after
another, built three edge arrays per block and packed them into one
network in a single call, with the per-block walk (``_walk``), series
(``_sample_block``) and vertex pairs (``_vertex_pairs``) that it steps
each block with, all written here rather than taken from the module
they check.  ``sdsbm.generator.generate_network`` samples one snapshot
at a time instead, every block taking one step per snapshot in one
vectorised step, and must give the same edges, states, densities and
counts from the same seed.  ``step_major_series`` walks rows of count
series from one shared stream, one scalar draw at a time, step after
step, as ``sdsbm.generator.generate_block_series`` must.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from sdsbm.graph_model import DynamicNetwork, TypePair, VertexTyping
from sdsbm.ssm import DRIVEN, ParamStack, observe, step

from conftest import network_of_edges


def _walk(
    params: ParamStack, b: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, float]]:
    """Row b's latent walk from its mu0, one step per ``next``: the state
    after the step's transition and the realized density e, clamped to
    [0, 1].  The caller draws the step's edges from ``rng`` before it asks
    for the next step.  A walk starts from a known state, so the row's
    Sigma0 must be 0; that is checked on the call, before any step."""
    if params.Sigma0[b].any():
        raise ValueError("the generator starts each block at its mu0: Sigma0 must be 0")
    sd_0, sd_1, sd_r = (math.sqrt(v) for v in (*params.q[b], params.r[b]))

    def steps(state):
        while True:
            state = step(state)
            state[DRIVEN] += (rng.normal(0.0, sd_0), rng.normal(0.0, sd_1))
            e = observe(state, 1.0) + rng.normal(0.0, sd_r)
            yield state, min(max(e, 0.0), 1.0)

    return steps(params.mu0[b])


def _sample_block(
    params: ParamStack,
    b: int,
    T: int,
    rng: np.random.Generator,
    draw: Callable[[int, float], int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run row b's walk for T steps; ``draw(t, e)`` samples step t's
    formed edges at realized density e from ``rng`` and returns their
    count.  Gives the (T, d) states, the (T,) densities and the (T,)
    counts."""
    states = np.zeros((T, params.d))
    density = np.zeros(T)
    counts = np.zeros(T)
    # range comes first, so the walk takes no step past T
    for t, (state, e) in zip(range(T), _walk(params, b, rng)):
        states[t] = state
        density[t] = e
        counts[t] = draw(t, e)
    return states, density, counts


def step_major_series(
    params: ParamStack, n, T: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's walk from one stream ``rng``, step after step: at each
    step, each row's walk in turn draws its three noises, then each row
    in turn draws its count, Binomial(n[b], e).  Gives the (B, T, d)
    states, the (B, T) densities and the (B, T) counts."""
    walks = [_walk(params, b, rng) for b in range(len(params))]
    states = np.zeros((len(params), T, params.d))
    density, counts = np.zeros((2, len(params), T))
    for t in range(T):
        for b, walk in enumerate(walks):
            states[b, t], density[b, t] = next(walk)
        for b in range(len(params)):
            counts[b, t] = rng.binomial(n[b], density[b, t])
    return states, density, counts


def _vertex_pairs(typing: VertexTyping, pair: TypePair) -> tuple[np.ndarray, np.ndarray]:
    """All vertex pairs of a block, as two arrays of vertex indices: within
    a type, the upper triangle over its vertices' ascending indices; across
    two types, each vertex of the first against every vertex of the
    second."""
    a, b = (
        np.array([i for i, v in enumerate(typing.vertex_ids) if typing.type_of[v] == label], np.int64)
        for label in pair
    )
    if pair[0] == pair[1]:
        i, j = np.triu_indices(a.size, k=1)
        return a[i], a[j]
    return np.repeat(a, b.size), np.tile(b, a.size)


def generate_network(
    params: ParamStack,
    typing: VertexTyping,
    T: int,
    rng: np.random.Generator,
) -> tuple[DynamicNetwork, np.ndarray, np.ndarray, np.ndarray]:
    """Sample a full dynamic network block by block.

    Row b of ``params`` is the b-th non-empty block, and each draws from
    its own child stream of ``rng`` (spawned in canonical block order),
    so block samples are independent and insensitive to other blocks'
    settings.  Gives the network and its blocks' truth, one row per
    block in that order: the (B, T, d) states, the (B, T) densities and
    the (B, T) counts.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    vertex_pairs = [_vertex_pairs(typing, p) for p in typing.pairs()]
    active = [(vi, vj) for vi, vj in vertex_pairs if vi.size >= 1]
    if len(params) != len(active):
        raise ValueError(f"{len(params)} parameter rows for {len(active)} blocks")
    streams = rng.spawn(len(active))
    edge_t, edge_i, edge_j = ([np.zeros(0, np.int64)] for _ in range(3))
    states = np.zeros((len(active), T, params.d))
    density, counts = np.zeros((2, len(active), T))
    for b, ((vi, vj), stream) in enumerate(zip(active, streams)):
        hits = [np.zeros(0, np.int64)]  # one array of formed-pair positions per step

        def draw(t: int, e: float) -> int:
            hits.append(np.flatnonzero(stream.random(vi.size) < e))
            return hits[-1].size

        states[b], density[b], counts[b] = _sample_block(params, b, T, stream, draw)
        formed = np.concatenate(hits)
        edge_t.append(np.repeat(np.arange(1, T + 1), counts[b].astype(np.int64)))
        edge_i.append(vi[formed])
        edge_j.append(vj[formed])
    network = network_of_edges(
        typing, T, np.concatenate(edge_t), np.concatenate(edge_i), np.concatenate(edge_j)
    )
    return network, states, density, counts
