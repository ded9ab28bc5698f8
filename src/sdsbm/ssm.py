"""State-space form of the per-block seasonal edge-density model.

The hidden state of one block is x_t = [m_t, s_t, s_{t-1}, ..., s_{t-d+2}]
(bias plus d-1 seasonal offsets; the d-th offset is implicit through the
zero-sum constraint).  The transition matrix G keeps the bias, rebuilds
the leading offset as minus the sum of the stored ones, and shifts the
rest right.  The observation row H = (n, n, 0, ..., 0) maps a state to
the expected formed-edge count n * (m_t + s_t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Predicted counts are clamped into [eps*n, (1-eps)*n] before the
# binomial-variance formula, which is zero or negative at the boundary.
COUNT_CLAMP_EPS = 1e-6

# Rule-of-thumb minimum for trusting the Gaussian count approximation.
NORMAL_APPROX_MIN_COUNT = 10.0


@dataclass(frozen=True)
class StateSpace:
    """Matrices of the linear-Gaussian model, for one block or a stack.

    G: d x d transition, shared by every block.  H: observation row(s),
    Q: process covariance(s) diag(q_m, q_s, 0, ..., 0), r: measurement
    variance(s) on the realized density, n: possible-edge count(s).  For
    a stack of B blocks n and r are (B,), H is (B, d) and Q (B, d, d).
    """

    d: int
    n: np.ndarray
    G: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    r: np.ndarray

    @property
    def measurement_var(self) -> np.ndarray:
        """The measurement variance in count^2 units, n^2 r."""
        return self.n * self.n * self.r


def check_variances(*variances) -> None:
    """Require every variance (scalar or array) to be finite and non-negative."""
    for v in variances:
        v = np.asarray(v, dtype=float)
        if not np.isfinite(v).all():
            raise ValueError("variances must be finite")
        if (v < 0).any():
            raise ValueError("variances must be non-negative")


def build_state_space(d: int, n, q_m, q_s, r) -> StateSpace:
    """Assemble the transition/observation model.

    Elementwise in n, q_m, q_s and r: arrays of shape (B,) give a stack
    of B blocks' matrices sharing one G.
    """
    if d < 2:
        raise ValueError("period d must be >= 2 (no seasonal structure below that)")
    n = np.asarray(n, dtype=float)
    if (n < 1).any():
        raise ValueError("possible-edge count must be >= 1")
    check_variances(q_m, q_s, r)
    G = np.zeros((d, d))
    G[0, 0] = 1.0
    G[1, 1:] = -1.0
    if d > 2:
        G[2:, 1 : d - 1] = np.eye(d - 2)
    batch = np.broadcast_shapes(n.shape, np.shape(q_m), np.shape(q_s), np.shape(r))
    H = np.zeros(batch + (d,))
    H[..., :2] = n[..., None]
    Q = np.zeros(batch + (d, d))
    Q[..., 0, 0] = q_m
    Q[..., 1, 1] = q_s
    return StateSpace(d=d, n=n, G=G, H=H, Q=Q, r=np.asarray(r, dtype=float))


def binomial_obs_noise(predicted_count, n):
    """Count-variance p*(1 - p/n) of the edge-sampling process.

    Elementwise; a scalar gives a float.  The prediction is clamped away
    from 0 and n so the variance stays strictly positive.
    """
    n = np.asarray(n, dtype=float)
    if (n < 1).any():
        raise ValueError("possible-edge count must be >= 1")
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


def _checked_belief(d, q_m, q_s, r, mu0, Sigma0, batch=()):
    """Validate one block's parameters (``batch`` = ()) or a stack's
    (``batch`` = (B,)); returns mu0 and the symmetrised Sigma0 as floats."""
    if d < 2:
        raise ValueError("period d must be >= 2")
    check_variances(q_m, q_s, r)
    mu0 = np.asarray(mu0, dtype=float)
    Sigma0 = np.asarray(Sigma0, dtype=float)
    if mu0.shape != batch + (d,):
        raise ValueError(f"mu0 must have length d={d}")
    if Sigma0.shape != batch + (d, d):
        raise ValueError(f"Sigma0 must be {d}x{d}")
    if not (np.isfinite(mu0).all() and np.isfinite(Sigma0).all()):
        raise ValueError("mu0 and Sigma0 must be finite")
    Sigma0_T = np.swapaxes(Sigma0, -1, -2)
    scale = np.maximum(np.abs(Sigma0).max(axis=(-2, -1), initial=0.0), 1.0)
    if (np.abs(Sigma0 - Sigma0_T).max(axis=(-2, -1), initial=0.0) > 1e-8 * scale).any():
        raise ValueError("Sigma0 must be symmetric")
    return mu0, 0.5 * (Sigma0 + Sigma0_T)


@dataclass(frozen=True)
class ModelParams:
    """Learnable per-block parameters: process/measurement variances and
    the initial Gaussian belief."""

    d: int
    q_m: float
    q_s: float
    r: float
    mu0: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self) -> None:
        variances = [float(getattr(self, k)) for k in _STACKED[:3]]
        mu0, Sigma0 = _checked_belief(self.d, *variances, self.mu0, self.Sigma0)
        for key, value in zip(_STACKED, (*variances, mu0, Sigma0)):
            object.__setattr__(self, key, value)

    def state_space(self, n: int) -> StateSpace:
        return build_state_space(self.d, n, self.q_m, self.q_s, self.r)


_STACKED = ("q_m", "q_s", "r", "mu0", "Sigma0")


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
        variances = [np.asarray(getattr(self, k), dtype=float) for k in _STACKED[:3]]
        if variances[0].ndim != 1 or any(v.shape != variances[0].shape for v in variances):
            raise ValueError("q_m, q_s and r must be equal-length vectors")
        mu0, Sigma0 = _checked_belief(
            self.d, *variances, self.mu0, self.Sigma0, batch=variances[0].shape
        )
        for key, value in zip(_STACKED, (*variances, mu0, Sigma0)):
            object.__setattr__(self, key, value)

    @classmethod
    def of(cls, params: Sequence[ModelParams]) -> ParamStack:
        """Stack one ModelParams per block; all must share one period d."""
        ds = sorted({p.d for p in params})
        if len(ds) != 1:
            raise ValueError(f"blocks disagree on period d: {ds}")
        return cls(ds[0], *(np.array([getattr(p, k) for p in params]) for k in _STACKED))

    def __len__(self) -> int:
        return int(self.r.shape[0])

    def __getitem__(self, b: int) -> ModelParams:
        return ModelParams(self.d, *(getattr(self, k)[b] for k in _STACKED))

    def take(self, idx) -> ParamStack:
        """The stack of blocks ``idx`` (an index array)."""
        return ParamStack(self.d, *(getattr(self, k)[idx] for k in _STACKED))

    def put(self, idx, sub: ParamStack) -> ParamStack:
        """A copy with blocks ``idx`` replaced by the blocks of ``sub``."""
        arrays = [getattr(self, k).copy() for k in _STACKED]
        for array, k in zip(arrays, _STACKED):
            array[idx] = getattr(sub, k)
        return ParamStack(self.d, *arrays)

    def state_space(self, n: np.ndarray) -> StateSpace:
        return build_state_space(self.d, n, self.q_m, self.q_s, self.r)
