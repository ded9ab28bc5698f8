"""Reference network generator: the loop that sampled one block after
another, built three edge arrays per block and packed them into one
network in a single call, kept as it was written.
``sdsbm.generator.generate_network`` samples one snapshot at a time
instead, every block taking one step per snapshot, and must give the
same edges and traces from the same seed.
"""

from __future__ import annotations

import numpy as np

from sdsbm.generator import LatentTrace, _sample_block
from sdsbm.graph_model import (
    DynamicNetwork,
    TypePair,
    VertexTyping,
    block_pairs,
)
from sdsbm.ssm import ParamStack

from conftest import network_of_edges


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
