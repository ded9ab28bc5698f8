"""Sampling of synthetic seasonal dynamic networks with recorded latents.

The generative process per block: the bias follows a random walk, the
leading seasonal offset is rebuilt each step from the zero-sum
constraint plus noise, the realized edge density adds per-step
measurement noise, and edges are independent Bernoulli draws at that
density.  Every sampler also returns the hidden trajectory so tests and
experiments can compare inferred beliefs against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .graph_model import (
    BlockSeries,
    DynamicNetwork,
    TypePair,
    VertexTyping,
    block_pairs,
    pair_possible_edges,
)


@dataclass(frozen=True)
class SeasonalState:
    """Hidden state of one block: bias plus the stored seasonal offsets
    (newest first; the d-th offset is implicit via the zero-sum rule)."""

    bias: float
    offsets: np.ndarray

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=float)
        if offsets.ndim != 1 or offsets.shape[0] < 1:
            raise ValueError("offsets must be a vector of length d-1 >= 1")
        object.__setattr__(self, "offsets", offsets)

    @property
    def d(self) -> int:
        return self.offsets.shape[0] + 1

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.bias], self.offsets))

    @property
    def density(self) -> float:
        """Noise-free edge density m + s at this step."""
        return float(self.bias + self.offsets[0])


def default_state(d: int, bias: float = 0.5) -> SeasonalState:
    """Flat starting state: given bias, all offsets zero."""
    if d < 2:
        raise ValueError("period d must be >= 2")
    return SeasonalState(bias=bias, offsets=np.zeros(d - 1))


def seasonal_state(d: int, bias: float, profile: np.ndarray) -> SeasonalState:
    """Starting state whose noise-free run repeats ``profile`` each period.

    ``profile[k]`` is the seasonal offset generated at phase k, i.e. at
    steps t with t % d == k; it is shifted to sum to zero first.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (d,):
        raise ValueError(f"profile must have length d={d}")
    profile = profile - profile.mean()
    # state holds (s_0, s_-1, ..., s_-(d-2)) = profile at phases 0, d-1, ..., 2
    offsets = np.array([profile[(-j) % d] for j in range(d - 1)])
    return SeasonalState(bias=bias, offsets=offsets)


def sine_profile(d: int, amplitude: float) -> np.ndarray:
    """Zero-sum sinusoidal seasonal pattern with the given half-range."""
    phases = np.arange(d)
    profile = amplitude * np.sin(2.0 * np.pi * phases / d)
    return profile - profile.mean()


@dataclass(frozen=True)
class GenParams:
    """Generator configuration for one block."""

    d: int
    q_m: float
    q_s: float
    r: float
    init: SeasonalState

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("period d must be >= 2")
        if self.q_m < 0 or self.q_s < 0 or self.r < 0:
            raise ValueError("variances must be non-negative")
        if self.init.d != self.d:
            raise ValueError(
                f"initial state has period {self.init.d}, expected {self.d}"
            )


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


def step_latent(state: SeasonalState, params: GenParams, rng: np.random.Generator) -> SeasonalState:
    """One transition of the hidden seasonal process."""
    if state.d != params.d:
        raise ValueError("state dimension does not match params.d")
    bias = state.bias + rng.normal(0.0, math.sqrt(params.q_m))
    lead = -np.sum(state.offsets) + rng.normal(0.0, math.sqrt(params.q_s))
    offsets = np.concatenate(([lead], state.offsets[:-1]))
    return SeasonalState(bias=bias, offsets=offsets)


def _realized_density(state: SeasonalState, params: GenParams, rng: np.random.Generator) -> float:
    e = state.density + rng.normal(0.0, math.sqrt(params.r))
    return min(max(e, 0.0), 1.0)


def generate_block_series(
    params: GenParams,
    n: int,
    T: int,
    rng: np.random.Generator,
    pair: TypePair = ("a", "a"),
) -> tuple[BlockSeries, LatentTrace]:
    """Sample one block's count series plus its hidden trajectory.

    Counts are binomial draws w_t ~ Binomial(n, e_t) with e_t the
    realized density clamped to [0, 1].
    """
    if n < 1:
        raise ValueError("possible-edge count must be >= 1")
    if T < 1:
        raise ValueError("series length must be >= 1")
    state = params.init
    states = np.zeros((T, params.d))
    density = np.zeros(T)
    counts = np.zeros(T)
    for t in range(T):
        state = step_latent(state, params, rng)
        e = _realized_density(state, params, rng)
        states[t] = state.as_vector()
        density[t] = e
        counts[t] = rng.binomial(n, e)
    series = BlockSeries(pair=pair, n=n, counts=counts)
    return series, LatentTrace(states=states, density=density, counts=counts)


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
        params = block_params[p]
        vi, vj = block_pairs(typing, p)
        n = vi.size
        state = params.init
        states = np.zeros((T, params.d))
        density = np.zeros(T)
        counts = np.zeros(T)
        for t in range(T):
            state = step_latent(state, params, stream)
            e = _realized_density(state, params, stream)
            present = np.flatnonzero(stream.random(n) < e)
            states[t] = state.as_vector()
            density[t] = e
            counts[t] = present.size
            edge_t.append(np.full(present.size, t + 1))
            edge_i.append(vi[present])
            edge_j.append(vj[present])
        traces[p] = LatentTrace(states=states, density=density, counts=counts)
    network = DynamicNetwork.from_edges(
        typing, T, np.concatenate(edge_t), np.concatenate(edge_i), np.concatenate(edge_j)
    )
    return network, traces
