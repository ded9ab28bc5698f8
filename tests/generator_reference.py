"""Reference network generator: the loop that sampled one block after
another, built three edge arrays per block and packed them into one
network in a single call, kept as it was written, with the per-block
walk (``_walk``) and series (``_sample_block``) that it steps each
block with.  ``sdsbm.generator.generate_network`` samples one snapshot
at a time instead, every block taking one step per snapshot in one
vectorised step, and must give the same edges and traces from the same
seed.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from sdsbm.generator import LatentTrace
from sdsbm.graph_model import (
    DynamicNetwork,
    TypePair,
    VertexTyping,
    block_pairs,
)
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
) -> LatentTrace:
    """Run row b's walk for T steps; ``draw(t, e)`` samples step t's
    formed edges at realized density e from ``rng`` and returns their
    count."""
    states = np.zeros((T, params.d))
    density = np.zeros(T)
    counts = np.zeros(T)
    # range comes first, so the walk takes no step past T
    for t, (state, e) in zip(range(T), _walk(params, b, rng)):
        states[t] = state
        density[t] = e
        counts[t] = draw(t, e)
    return LatentTrace(states=states, density=density, counts=counts)


def generate_network(
    params: ParamStack,
    typing: VertexTyping,
    T: int,
    rng: np.random.Generator,
) -> tuple[DynamicNetwork, dict[TypePair, LatentTrace]]:
    """Sample a full dynamic network block by block.

    Row b of ``params`` is the b-th non-empty block, and each draws from
    its own child stream of ``rng`` (spawned in canonical block order),
    so block samples are independent and insensitive to other blocks'
    settings.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    pairs = typing.pairs()
    active = [p for p in pairs if block_pairs(typing, p)[0].size >= 1]
    if len(params) != len(active):
        raise ValueError(f"{len(params)} parameter rows for {len(active)} blocks")
    streams = rng.spawn(len(active))
    edge_t, edge_i, edge_j = ([np.zeros(0, np.int64)] for _ in range(3))
    traces: dict[TypePair, LatentTrace] = {}
    for b, (p, stream) in enumerate(zip(active, streams)):
        vi, vj = block_pairs(typing, p)
        hits = [np.zeros(0, np.int64)]  # one array of formed-pair positions per step

        def draw(t: int, e: float) -> int:
            hits.append(np.flatnonzero(stream.random(vi.size) < e))
            return hits[-1].size

        traces[p] = trace = _sample_block(params, b, T, stream, draw)
        formed = np.concatenate(hits)
        edge_t.append(np.repeat(np.arange(1, T + 1), trace.counts.astype(np.int64)))
        edge_i.append(vi[formed])
        edge_j.append(vj[formed])
    network = network_of_edges(
        typing, T, np.concatenate(edge_t), np.concatenate(edge_i), np.concatenate(edge_j)
    )
    return network, traces
