import numpy as np
import pytest

from sdsbm.generator import generate_network
from sdsbm.graph_model import BlockStack, DynamicNetwork, edge_keys
from sdsbm.ssm import FIELDS, ParamStack


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


def one_block(counts, n=100, pair=("a", "a")) -> BlockStack:
    """A stack of one block."""
    return BlockStack((pair,), np.array([n]), np.array([counts], dtype=float))


def stacked(params) -> ParamStack:
    """One ``ParamStack`` of per-block ``ModelParams``, in order; all must
    share one period d."""
    ds = sorted({p.d for p in params})
    if len(ds) != 1:
        raise ValueError(f"blocks disagree on period d: {ds}")
    return ParamStack(ds[0], *(np.array([getattr(p, k) for p in params]) for k in FIELDS))


def known_start(q_m, q_s, r, mu0) -> ParamStack:
    """One block's parameters with its initial state mu0 known exactly
    (Sigma0 = 0): a stack of one to sample from, and the truth to score
    the sample with."""
    d = len(mu0)
    return ParamStack(d, [q_m], [q_s], [r], [mu0], np.zeros((1, d, d)))


def edge_arrays(net):
    """A network's edges as three int64 arrays (t, u, v), in key order,
    joined from the chunks of ``net.edge_chunks()``."""
    chunks = [(np.zeros(0, np.int64),) * 3, *net.edge_chunks()]
    return tuple(np.concatenate(part) for part in zip(*chunks))


def network_of_edges(typing, T, t, i, j) -> DynamicNetwork:
    """The network whose snapshot ``t[k]`` holds an edge between vertex
    indices ``i[k]`` and ``j[k]``, in any order and with repeats."""
    t, i, j = (np.asarray(x, dtype=np.int64) for x in (t, i, j))
    return DynamicNetwork.from_keys(typing, T, edge_keys(t, i, j, len(typing.vertex_ids)))


def generated_network(params, typing, T, rng):
    """``generate_network``'s snapshots drained into the whole network and
    its blocks' truth, one row per block in canonical order: the (B, T, d)
    states, the (B, T) densities and the (B, T) counts."""
    snapshots = list(generate_network(params, typing, T, rng))
    keys = np.concatenate([np.zeros(0, np.int64), *(s.keys for s in snapshots)])
    states, density, counts = (
        np.array([getattr(s, field) for s in snapshots]).reshape(T, len(params), *shape).swapaxes(0, 1)
        for field, shape in (("states", (params.d,)), ("density", ()), ("counts", ()))
    )
    return DynamicNetwork(typing, T, keys), states, density, counts


def gaps_as_nan(counts):
    """Extracted counts, in place, under the missing-observation policy:
    a step whose block counts are all 0 had no edge, so it is a gap."""
    counts[:, ~counts.any(axis=0)] = np.nan
    return counts


def concat(stacks) -> BlockStack:
    """The blocks of several stacks on one time axis, in order."""
    stacks = list(stacks)
    return BlockStack(
        sum((s.pairs for s in stacks), ()),
        np.concatenate([s.n for s in stacks]),
        np.concatenate([s.counts for s in stacks]),
    )
