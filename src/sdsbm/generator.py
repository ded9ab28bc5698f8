"""Sampling of synthetic seasonal dynamic networks with recorded latents.

The generative process per block is the model's: each step the state
takes ``ssm.step`` plus noise of variances ``ParamStack.q`` at the
entries ``ssm.DRIVEN``, the realized edge density is ``ssm.observe`` of
it plus measurement noise, and edges are independent Bernoulli draws at
that density.  That step is written once, in ``_advance``, over any
stack of walks, and both samplers advance every block's walk at once,
one step at a time, drawing the step's noises for every block before
its counts or edges; so a network is sampled, and can be written, one
snapshot at a time.  The samplers take the
``ParamStack`` that the filter and EM take, one row per block: each
row's walk starts at its mu0, and its Sigma0 must be 0.  So the truth a
test scores with is the very stack it sampled from.  Every sampler also
gives the hidden trajectory as arrays with one row per block: the
states after each step's transition and the realized densities, whole
series from ``generate_block_series`` and one step per ``Snapshot``, so
tests can compare inferred beliefs with the truth.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .graph_model import (
    BlockStack,
    TypePair,
    VertexTyping,
    block_pairs,
    check_snapshots,
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
    """Zero-sum sinusoidal seasonal pattern with the given half-range.

    The sum of the profile's magnitudes must be finite: it bounds every
    sum of offsets that its mean and the state's transition take."""
    check_period(d)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        profile = amplitude * np.sin(2.0 * np.pi * np.arange(d) / d)
        profile -= profile.mean()
        bounded = np.isfinite(np.abs(profile).sum())
    if not bounded:
        raise ValueError("seasonal amplitude must be finite, with a profile whose offsets sum "
                         f"without overflow, got {amplitude!r}")
    return profile


def _noise_sd(params: ParamStack) -> np.ndarray:
    """The (B, 3) standard deviations of each row's noises, in the order
    a step draws them: the two of Q at ``DRIVEN``, then the measurement
    noise's.  A walk starts from a known state, so every row's Sigma0
    must be 0."""
    if params.Sigma0.any():
        raise ValueError("the generator starts each block at its mu0: Sigma0 must be 0")
    return np.sqrt(np.column_stack((params.q, params.r)))


def _advance(states: np.ndarray, sd: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of the walks at ``states`` (any leading axes, state on
    the last): the states after the step's transition, and the realized
    densities e, clamped to [0, 1].  ``z`` holds each walk's three
    standard normal draws, scaled by ``sd`` (``_noise_sd``) into its
    noises."""
    noise = 0.0 + sd * z  # as numpy's normal(0.0, sd) forms it, so a zero sd adds +0.0
    states = step(states)
    states[..., DRIVEN] += noise[..., :2]
    e = observe(states, 1.0) + noise[..., 2]
    return states, np.minimum(np.maximum(e, 0.0), 1.0)


def generate_block_series(
    params: ParamStack,
    n: int | Sequence[int],
    T: int,
    rng: np.random.Generator,
    pairs: Sequence[TypePair] = (("a", "a"),),
) -> tuple[BlockStack, np.ndarray, np.ndarray]:
    """Sample the count series of one block per row of ``params``, as
    blocks ``pairs`` of n possible edges each (``n`` is one value or one
    per row), plus each row's hidden trajectory: the (B, T, d) states
    after each step's transition and the (B, T) realized densities, with
    step t = 1..T in column t - 1.

    Every row takes step t at once: the step draws a (B, 3) array of
    standard normals from ``rng``, each row's three in the order that
    ``generate_network`` draws them, then the B counts.  So B rows draw
    step by step, not row after row.  Counts are binomial draws
    w_t ~ Binomial(n, e_t) with e_t the realized density clamped to [0, 1].
    """
    n = np.broadcast_to(np.asarray(n, dtype=np.int64), (len(params),))
    if len(pairs) != len(params):
        raise ValueError(f"{len(params)} parameter rows for {len(pairs)} block pairs")
    if (n < 1).any():
        raise ValueError("possible-edge count must be >= 1")
    if T < 1:
        raise ValueError("series length must be >= 1")
    sd = _noise_sd(params)
    states = np.empty((len(params), T, params.d))
    density = np.empty((len(params), T))
    counts = np.empty((len(params), T))
    state = params.mu0
    for t in range(T):
        state, density[:, t] = _advance(state, sd, rng.standard_normal((len(params), 3)))
        states[:, t] = state
        counts[:, t] = rng.binomial(n, density[:, t])
    return BlockStack(tuple(pairs), n, counts), states, density


class Snapshot(NamedTuple):
    """Snapshot t of a sampled network: its edges' keys, sorted, and for
    each block, in canonical order, the hidden state after the step-t
    transition (``states``, (B, d)), the realized density and the
    formed-edge count (``density`` and ``counts``, (B,) each)."""

    keys: np.ndarray
    states: np.ndarray
    density: np.ndarray
    counts: np.ndarray


def generate_network(
    params: ParamStack,
    typing: VertexTyping,
    T: int,
    rng: np.random.Generator,
) -> Iterator[Snapshot]:
    """Sample a dynamic network of T snapshots, one snapshot at a time.

    Row b of ``params`` is the b-th of the typing's blocks
    (``VertexTyping.blocks``).  Each block draws from its own child
    stream of ``rng`` (spawned in canonical block order), so block
    samples are independent and insensitive to other blocks' settings.
    At each step a block's stream gives three standard normals, the
    noises of q_m, q_s and r in that order, then one uniform per pair of
    the block, in the block's pair order; a pair forms an edge where its
    uniform is below the realized density.  Every refusal, and every
    block's pair keys, come on the call; the iterator it returns then
    yields the ``Snapshot`` of t = 1..T, so only one snapshot's edges
    are held at a time.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    V = len(typing.vertex_ids)
    check_snapshots(T, V)
    pairs, n = typing.blocks()
    if len(params) != len(pairs):
        raise ValueError(f"{len(params)} parameter rows for the typing's {len(pairs)} blocks")
    sd = _noise_sd(params)
    streams = rng.spawn(len(pairs))
    # every block's pairs as keys at t = 0, block after block, and the
    # order that sorts them; blocks share no pair, so no key repeats
    keys = np.concatenate([np.zeros(0, np.int64), *(
        edge_keys(np.zeros_like(vi), vi, vj, V)
        for vi, vj in (block_pairs(typing, p) for p in pairs)
    )])
    order = np.argsort(keys)
    keys = keys[order]
    bounds = np.cumsum([0, *n]).tolist()
    blocks = list(zip(streams, bounds[:-1], bounds[1:]))

    def snapshots() -> Iterator[Snapshot]:
        # whether each pair, block after block, formed an edge at step t
        formed = np.empty(keys.size, dtype=bool)
        z = np.empty((len(blocks), 3))
        rows = list(z)
        states = params.mu0
        for t in range(1, T + 1):
            for stream, row in zip(streams, rows):
                stream.standard_normal(out=row)
            states, density = _advance(states, sd, z)
            for (stream, lo, hi), e in zip(blocks, density.tolist()):
                np.less(stream.random(hi - lo), e, out=formed[lo:hi])
            edges = keys[formed[order]]
            edges += t * V * V
            counts = np.add.reduceat(formed, bounds[:-1], dtype=float)
            yield Snapshot(edges, states, density, counts)

    return snapshots()
