"""Sampling of synthetic seasonal dynamic networks with recorded latents.

The generative process per block is the model's: each step the state
takes ``ssm.step`` plus noise of variances ``ParamStack.q`` at the
entries ``ssm.DRIVEN``, the realized edge density is ``ssm.observe`` of
it plus measurement noise, and edges are independent Bernoulli draws at
that density.  The samplers take the ``ParamStack`` that the filter and
EM take, one row per block: each row's walk starts at its mu0, and its
Sigma0 must be 0.  So the truth a test scores with is the very stack it
sampled from.  Every sampler also returns the hidden trajectory, so
tests can compare inferred beliefs with the truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph_model import (
    BlockStack,
    DynamicNetwork,
    TypePair,
    VertexTyping,
    block_pairs,
    edge_keys,
)
from .ssm import DRIVEN, ParamStack, check_period, initial_state, observe, step


def seasonal_state(d: int, bias: float, profile: np.ndarray) -> np.ndarray:
    """Starting state whose noise-free run repeats ``profile`` each period.

    ``profile[k]`` is the seasonal offset generated at phase k, i.e. at
    steps t with t % d == k; it is shifted to sum to zero first.
    """
    check_period(d)
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (d,):
        raise ValueError(f"profile must have length d={d}")
    return initial_state(bias, profile - profile.mean())


def sine_profile(d: int, amplitude: float) -> np.ndarray:
    """Zero-sum sinusoidal seasonal pattern with the given half-range."""
    check_period(d)
    if not math.isfinite(amplitude):
        raise ValueError("seasonal amplitude must be finite")
    phases = np.arange(d)
    profile = amplitude * np.sin(2.0 * np.pi * phases / d)
    return profile - profile.mean()


@dataclass(frozen=True)
class LatentTrace:
    """Ground-truth record of one generated block.

    ``states[t]`` is the hidden state after the step-t transition,
    ``density[t]`` the realized e_t and ``counts[t]`` the formed-edge
    count, all 0-based for t = 1..T.
    """

    states: np.ndarray
    density: np.ndarray
    counts: np.ndarray


def _sample_block(
    params: ParamStack,
    b: int,
    T: int,
    rng: np.random.Generator,
    draw: Callable[[int, float], int],
) -> LatentTrace:
    """Run row b's latent walk for T steps from its mu0; ``draw(t, e)``
    samples step t's formed edges at realized density e from ``rng`` and
    returns their count.  A run starts from a known state, so the row's
    Sigma0 must be 0."""
    if params.Sigma0[b].any():
        raise ValueError("the generator starts each block at its mu0: Sigma0 must be 0")
    sd_0, sd_1, sd_r = (math.sqrt(v) for v in (*params.q[b], params.r[b]))
    state = params.mu0[b]
    states = np.zeros((T, params.d))
    density = np.zeros(T)
    counts = np.zeros(T)
    for t in range(T):
        state = step(state)
        state[DRIVEN] += (rng.normal(0.0, sd_0), rng.normal(0.0, sd_1))
        e = observe(state, 1.0) + rng.normal(0.0, sd_r)
        e = min(max(e, 0.0), 1.0)
        states[t] = state
        density[t] = e
        counts[t] = draw(t, e)
    return LatentTrace(states=states, density=density, counts=counts)


def generate_block_series(
    params: ParamStack,
    n: int | Sequence[int],
    T: int,
    rng: np.random.Generator,
    pairs: Sequence[TypePair] = (("a", "a"),),
) -> tuple[BlockStack, list[LatentTrace]]:
    """Sample the count series of one block per row of ``params``, as
    blocks ``pairs`` of n possible edges each (``n`` is one value or one
    per row), plus each row's hidden trajectory.

    Rows are drawn in order from ``rng``, so B rows give what B one-row
    calls in sequence give.  Counts are binomial draws
    w_t ~ Binomial(n, e_t) with e_t the realized density clamped to [0, 1].
    """
    n = np.broadcast_to(np.asarray(n, dtype=np.int64), (len(params),))
    if len(pairs) != len(params):
        raise ValueError(f"{len(params)} parameter rows for {len(pairs)} block pairs")
    if (n < 1).any():
        raise ValueError("possible-edge count must be >= 1")
    if T < 1:
        raise ValueError("series length must be >= 1")
    traces = [
        _sample_block(params, b, T, rng, lambda t, e: rng.binomial(n[b], e))
        for b in range(len(params))
    ]
    counts = np.array([trace.counts for trace in traces]).reshape(len(params), T)
    return BlockStack(tuple(pairs), n, counts), traces


def generate_network(
    params: ParamStack,
    typing: VertexTyping,
    T: int,
    rng: np.random.Generator,
) -> tuple[DynamicNetwork, dict[TypePair, LatentTrace]]:
    """Sample a full dynamic network block by block.

    Row b of ``params`` is the b-th of the typing's blocks
    (``VertexTyping.blocks``).  Each block draws from its own child
    stream of ``rng`` (spawned in canonical block order), so block
    samples are independent and insensitive to other blocks' settings.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    pairs, _ = typing.blocks()
    if len(params) != len(pairs):
        raise ValueError(f"{len(params)} parameter rows for the typing's {len(pairs)} blocks")
    streams = rng.spawn(len(pairs))
    V = len(typing.vertex_ids)
    keys = [np.zeros(0, np.int64)]  # the formed pairs' edge keys, one array per block and step
    traces: dict[TypePair, LatentTrace] = {}
    for b, (p, stream) in enumerate(zip(pairs, streams)):
        vi, vj = block_pairs(typing, p)
        pair_keys = edge_keys(np.zeros_like(vi), vi, vj, V)  # the block's pairs at t = 0

        def draw(t: int, e: float) -> int:
            formed = pair_keys[stream.random(pair_keys.size) < e]
            formed += (t + 1) * V * V
            keys.append(formed)
            return formed.size

        traces[p] = _sample_block(params, b, T, stream, draw)
    joined = np.concatenate(keys)
    keys.clear()
    return DynamicNetwork.from_keys(typing, T, joined), traces
