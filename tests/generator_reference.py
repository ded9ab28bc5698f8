"""Reference network generator: the loop that built three edge arrays
per block and packed them in one ``DynamicNetwork.from_edges`` call,
kept as it was written.  ``sdsbm.generator.generate_network`` appends
packed edge keys per step instead, and must give the same edges and
traces from the same seed.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from sdsbm.generator import GenParams, LatentTrace, _sample_block
from sdsbm.graph_model import (
    DynamicNetwork,
    TypePair,
    VertexTyping,
    block_pairs,
    pair_possible_edges,
)


def generate_network(
    block_params: Mapping[TypePair, GenParams],
    typing: VertexTyping,
    T: int,
    rng: np.random.Generator,
) -> tuple[DynamicNetwork, dict[TypePair, LatentTrace]]:
    """Sample a full dynamic network block by block.

    Each non-empty block needs a GenParams entry and draws from its own
    child stream of ``rng`` (spawned in canonical block order), so block
    samples are independent and insensitive to other blocks' settings.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    pairs = typing.pairs()
    active = [p for p in pairs if pair_possible_edges(typing, p) >= 1]
    for p in active:
        if p not in block_params:
            raise ValueError(f"missing GenParams for block {p}")
    streams = rng.spawn(len(active))
    edge_t, edge_i, edge_j = ([np.zeros(0, np.int64)] for _ in range(3))
    traces: dict[TypePair, LatentTrace] = {}
    for p, stream in zip(active, streams):
        vi, vj = block_pairs(typing, p)
        hits = [np.zeros(0, np.int64)]  # one array of formed-pair positions per step

        def draw(t: int, e: float) -> int:
            hits.append(np.flatnonzero(stream.random(vi.size) < e))
            return hits[-1].size

        traces[p] = trace = _sample_block(block_params[p], T, stream, draw)
        formed = np.concatenate(hits)
        edge_t.append(np.repeat(np.arange(1, T + 1), trace.counts.astype(np.int64)))
        edge_i.append(vi[formed])
        edge_j.append(vj[formed])
    network = DynamicNetwork.from_edges(
        typing, T, np.concatenate(edge_t), np.concatenate(edge_i), np.concatenate(edge_j)
    )
    return network, traces
