"""Sampling of synthetic seasonal dynamic networks with recorded latents.

The generative process per block: the bias follows a random walk, the
leading seasonal offset is rebuilt each step from the zero-sum
constraint plus noise, the realized edge density adds per-step
measurement noise, and edges are independent Bernoulli draws at that
density.  A state is the model's own vector [m_t, s_t, ..., s_{t-d+2}]
(the layout of ``ssm``'s x_t), so a generator's ``init`` is directly a
filter's ``mu0``.  Every sampler also returns the hidden trajectory so
tests and experiments can compare inferred beliefs against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .graph_model import (
    BlockStack,
    DynamicNetwork,
    TypePair,
    VertexTyping,
    block_pairs,
    edge_keys,
)
from .ssm import check_variances


def default_state(d: int, bias: float = 0.5) -> np.ndarray:
    """Flat starting state: given bias, all offsets zero."""
    if d < 2:
        raise ValueError("period d must be >= 2")
    state = np.zeros(d)
    state[0] = bias
    return state


def seasonal_state(d: int, bias: float, profile: np.ndarray) -> np.ndarray:
    """Starting state whose noise-free run repeats ``profile`` each period.

    ``profile[k]`` is the seasonal offset generated at phase k, i.e. at
    steps t with t % d == k; it is shifted to sum to zero first.
    """
    if d < 2:
        raise ValueError("period d must be >= 2")
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (d,):
        raise ValueError(f"profile must have length d={d}")
    profile = profile - profile.mean()
    # the offsets (s_0, s_-1, ..., s_-(d-2)) are the profile at phases 0, d-1, ..., 2
    return np.array([bias] + [profile[(-j) % d] for j in range(d - 1)])


def sine_profile(d: int, amplitude: float) -> np.ndarray:
    """Zero-sum sinusoidal seasonal pattern with the given half-range."""
    if d < 2:
        raise ValueError("period d must be >= 2")
    if not math.isfinite(amplitude):
        raise ValueError("seasonal amplitude must be finite")
    phases = np.arange(d)
    profile = amplitude * np.sin(2.0 * np.pi * phases / d)
    return profile - profile.mean()


@dataclass(frozen=True)
class GenParams:
    """Generator configuration for one block; ``init`` is the length-d
    state the first transition starts from."""

    d: int
    q_m: float
    q_s: float
    r: float
    init: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("period d must be >= 2")
        check_variances(self.q_m, self.q_s, self.r)
        init = np.asarray(self.init, dtype=float)
        if init.shape != (self.d,):
            raise ValueError(f"initial state must have length d={self.d}")
        if not np.isfinite(init).all():
            raise ValueError("initial state must be finite")
        object.__setattr__(self, "init", init)


@dataclass(frozen=True)
class LatentTrace:
    """Ground-truth record of one generated block.

    ``states[t]`` is the hidden vector [m_t, s_t, ..., s_{t-d+2}] after
    the step-t transition, ``density[t]`` the realized e_t and
    ``counts[t]`` the formed-edge count, all 0-based for t = 1..T.
    """

    states: np.ndarray
    density: np.ndarray
    counts: np.ndarray


def step_latent(state: np.ndarray, params: GenParams, rng: np.random.Generator) -> np.ndarray:
    """One transition of the hidden seasonal process."""
    if state.shape != (params.d,):
        raise ValueError("state dimension does not match params.d")
    nxt = np.empty(params.d)
    nxt[0] = state[0] + rng.normal(0.0, math.sqrt(params.q_m))
    nxt[1] = -np.sum(state[1:]) + rng.normal(0.0, math.sqrt(params.q_s))
    nxt[2:] = state[1:-1]
    return nxt


def _sample_block(
    params: GenParams,
    T: int,
    rng: np.random.Generator,
    draw: Callable[[int, float], int],
) -> LatentTrace:
    """Run the latent walk for T steps; ``draw(t, e)`` samples step t's
    formed edges at realized density e from ``rng`` and returns their count."""
    state = params.init
    states = np.zeros((T, params.d))
    density = np.zeros(T)
    counts = np.zeros(T)
    for t in range(T):
        state = step_latent(state, params, rng)
        e = state[0] + state[1] + rng.normal(0.0, math.sqrt(params.r))
        e = min(max(e, 0.0), 1.0)
        states[t] = state
        density[t] = e
        counts[t] = draw(t, e)
    return LatentTrace(states=states, density=density, counts=counts)


def generate_block_series(
    params: GenParams,
    n: int,
    T: int,
    rng: np.random.Generator,
    pair: TypePair = ("a", "a"),
) -> tuple[BlockStack, LatentTrace]:
    """Sample one block's count series, as a stack of one, plus its
    hidden trajectory.

    Counts are binomial draws w_t ~ Binomial(n, e_t) with e_t the
    realized density clamped to [0, 1].
    """
    if n < 1:
        raise ValueError("possible-edge count must be >= 1")
    if T < 1:
        raise ValueError("series length must be >= 1")
    trace = _sample_block(params, T, rng, lambda t, e: rng.binomial(n, e))
    return BlockStack((pair,), np.array([n]), trace.counts[None]), trace


def generate_network(
    block_params: Mapping[TypePair, GenParams],
    typing: VertexTyping,
    T: int,
    rng: np.random.Generator,
) -> tuple[DynamicNetwork, dict[TypePair, LatentTrace]]:
    """Sample a full dynamic network block by block.

    Each of the typing's blocks (``VertexTyping.blocks``) needs a
    GenParams entry and draws from its own child stream of ``rng``
    (spawned in canonical block order), so block samples are independent
    and insensitive to other blocks' settings.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    pairs, _ = typing.blocks()
    for p in pairs:
        if p not in block_params:
            raise ValueError(f"missing GenParams for block {p}")
    streams = rng.spawn(len(pairs))
    V = len(typing.vertex_ids)
    keys = [np.zeros(0, np.int64)]  # the formed pairs' edge keys, one array per block and step
    traces: dict[TypePair, LatentTrace] = {}
    for p, stream in zip(pairs, streams):
        vi, vj = block_pairs(typing, p)
        pair_keys = edge_keys(np.zeros_like(vi), vi, vj, V)  # the block's pairs at t = 0

        def draw(t: int, e: float) -> int:
            formed = pair_keys[stream.random(pair_keys.size) < e]
            formed += (t + 1) * V * V
            keys.append(formed)
            return formed.size

        traces[p] = _sample_block(block_params[p], T, stream, draw)
    joined = np.concatenate(keys)
    keys.clear()
    return DynamicNetwork.from_keys(typing, T, joined), traces
