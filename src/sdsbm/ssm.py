"""State-space form of the per-block seasonal edge-density model.

The hidden state of one block is x_t = [m_t, s_t, s_{t-1}, ..., s_{t-d+2}]
(bias plus d-1 seasonal offsets; the d-th offset is implicit through the
zero-sum constraint).  The transition G keeps the bias, rebuilds the
leading offset as minus the sum of the stored ones, and shifts the rest
right.  A block observes its state as the expected formed-edge count
n * (m_t + s_t), so its observation row is H = (n, n, 0, ..., 0), and
its process covariance is Q = diag(q_m, q_s, 0, ..., 0).  This layout
is written here only: ``step`` applies G (``transition`` is G as a
matrix), ``observe`` applies H, ``DRIVEN`` names the entries Q drives
and ``ParamStack.q`` holds their variances in its order, and
``initial_state`` fixes the phase order: the offset of phase k (the
steps t with t % d == k) starts as s_{-j} for j = -k mod d.  A block's
model is its possible-edge count n (``BlockStack.n``) and its row of a
``ParamStack``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Predicted counts are clamped into [eps*n, (1-eps)*n] before the
# binomial-variance formula, which is zero or negative at the boundary.
COUNT_CLAMP_EPS = 1e-6

# Rule-of-thumb minimum for trusting the Gaussian count approximation.
NORMAL_APPROX_MIN_COUNT = 10.0


def check_period(d: int) -> None:
    """Refuse a period below 2, which leaves no seasonal offset."""
    if d < 2:
        raise ValueError("period d must be >= 2")


DRIVEN = slice(0, 2)  # the entries Q drives: m_t and s_t, with variances q_m and q_s


def step(x: np.ndarray) -> np.ndarray:
    """G x on the last axis of ``x``, a new float array."""
    y = np.empty(x.shape)
    y[..., 0] = x[..., 0]
    y[..., 1] = -x[..., 1:].sum(axis=-1)
    y[..., 2:] = x[..., 1:-1]
    return y


def transition(d: int) -> np.ndarray:
    """The d x d transition G, shared by every block of period d."""
    return np.ascontiguousarray(step(np.eye(d)).T) + 0.0  # + 0.0 clears signs of zeros


def observe(x, n):
    """H x = n (m_t + s_t) on the last axis of ``x``, for a block of n
    possible edges; on the rows of a symmetric P it gives P H^T."""
    return n * x[..., 0] + n * x[..., 1]


def initial_state(bias, offsets: np.ndarray) -> np.ndarray:
    """The state [m, s_0, s_-1, ..., s_-(d-2)] of blocks with bias
    ``bias`` whose seasonal offset at phase k (steps t with t % d == k) is
    ``offsets[..., k]``, over any leading block axes.  The offsets are
    placed as given: a state that should repeat them needs them to sum
    to zero."""
    d = offsets.shape[-1]
    m = np.asarray(bias, dtype=float)[..., None]
    return np.concatenate((m, offsets[..., -np.arange(d - 1) % d]), axis=-1)


def binomial_obs_noise(predicted_count, n):
    """Count-variance p*(1 - p/n) of the edge-sampling process.

    Elementwise; a scalar gives a float.  The prediction is clamped away
    from 0 and n so the variance stays strictly positive.  n >= 1 is the
    caller's to ensure, as ``BlockStack`` does for every block.
    """
    lo = COUNT_CLAMP_EPS * n
    p_hat = np.minimum(np.maximum(predicted_count, lo), n - lo)
    u = p_hat * (1.0 - p_hat / n)
    return float(u) if u.ndim == 0 else u


def outside_normal_regime(predicted_count, n) -> np.ndarray:
    """Where a predicted count lies within ``NORMAL_APPROX_MIN_COUNT`` of
    0 or n, so the Gaussian count approximation is dubious (elementwise;
    False where the prediction is NaN)."""
    low = np.minimum(predicted_count, n - predicted_count)
    return np.asarray(low < NORMAL_APPROX_MIN_COUNT)


@dataclass(frozen=True)
class ModelParams:
    """One block's parameters, ``save_model``'s row type (``ParamStack[b]``
    gives block b's): process/measurement variances and initial belief."""

    d: int
    q_m: float
    q_s: float
    r: float
    mu0: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self) -> None:
        # checked as a stack of one; the variances stay Python floats
        variances = [float(getattr(self, k)) for k in FIELDS[:3]]
        row = ParamStack(self.d, *([v] for v in variances), [self.mu0], [self.Sigma0])
        for key, value in zip(FIELDS, (*variances, row.mu0[0], row.Sigma0[0])):
            object.__setattr__(self, key, value)


FIELDS = ("q_m", "q_s", "r", "mu0", "Sigma0")  # the per-block fields of a ParamStack, in order


@dataclass(frozen=True)
class ParamStack:
    """The parameters of B blocks sharing one period d, stacked on a
    leading block axis: q_m, q_s and r are (B,), mu0 is (B, d) and
    Sigma0 (B, d, d)."""

    d: int
    q_m: np.ndarray
    q_s: np.ndarray
    r: np.ndarray
    mu0: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self) -> None:
        """Check the stack; mu0 and Sigma0 are stored as floats, Sigma0
        symmetrised."""
        q_m, q_s, r, mu0, Sigma0 = (np.asarray(getattr(self, k), dtype=float) for k in FIELDS)
        if q_m.ndim != 1 or q_s.shape != q_m.shape or r.shape != q_m.shape:
            raise ValueError("q_m, q_s and r must be equal-length vectors")
        d = self.d
        check_period(d)
        variances = np.stack((q_m, q_s, r))
        if not np.isfinite(variances).all():
            raise ValueError("variances must be finite")
        if (variances < 0).any():
            raise ValueError("variances must be non-negative")
        if mu0.shape != (len(r), d):
            raise ValueError(f"mu0 must have length d={d}")
        if Sigma0.shape != (len(r), d, d):
            raise ValueError(f"Sigma0 must be {d}x{d}")
        if not (np.isfinite(mu0).all() and np.isfinite(Sigma0).all()):
            raise ValueError("mu0 and Sigma0 must be finite")
        Sigma0_T = Sigma0.swapaxes(1, 2)
        scale = np.maximum(np.abs(Sigma0).max(axis=(1, 2), initial=0.0), 1.0)
        if (np.abs(Sigma0 - Sigma0_T).max(axis=(1, 2), initial=0.0) > 1e-8 * scale).any():
            raise ValueError("Sigma0 must be symmetric")
        for key, value in zip(FIELDS, (q_m, q_s, r, mu0, 0.5 * (Sigma0 + Sigma0_T))):
            object.__setattr__(self, key, value)

    def __len__(self) -> int:
        return int(self.r.shape[0])

    @cached_property  # once per stack: the sampler reads it once per block
    def q(self) -> np.ndarray:
        """The (B, 2) variances Q adds at ``DRIVEN``, in its order."""
        return np.column_stack((self.q_m, self.q_s))

    def __getitem__(self, b: int) -> ModelParams:
        return ModelParams(self.d, *(getattr(self, k)[b] for k in FIELDS))

    def take(self, idx) -> ParamStack:
        """The stack of blocks ``idx`` (an index array)."""
        return ParamStack(self.d, *(getattr(self, k)[idx] for k in FIELDS))

    def put(self, idx, sub: ParamStack) -> ParamStack:
        """A copy with blocks ``idx`` replaced by the blocks of ``sub``."""
        arrays = [getattr(self, k).copy() for k in FIELDS]
        for array, k in zip(arrays, FIELDS):
            array[idx] = getattr(sub, k)
        return ParamStack(self.d, *arrays)
