"""State-space form of the per-block seasonal edge-density model.

The hidden state of one block is x_t = [m_t, s_t, s_{t-1}, ..., s_{t-d+2}]
(bias plus d-1 seasonal offsets; the d-th offset is implicit through the
zero-sum constraint).  The transition matrix G keeps the bias, rebuilds
the leading offset as minus the sum of the stored ones, and shifts the
rest right.  The observation row H = (n, n, 0, ..., 0) maps a state to
the expected formed-edge count n * (m_t + s_t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Predicted counts are clamped into [eps*n, (1-eps)*n] before the
# binomial-variance formula, which is zero or negative at the boundary.
COUNT_CLAMP_EPS = 1e-6

# Rule-of-thumb minimum for trusting the Gaussian count approximation.
NORMAL_APPROX_MIN_COUNT = 10.0


class NormalApproximationWarning(UserWarning):
    """Predicted count too close to 0 or n for the Gaussian approximation."""


@dataclass(frozen=True)
class StateSpace:
    """Matrices of one block's linear-Gaussian model.

    G: d x d transition, H: length-d observation row, Q: d x d process
    covariance diag(q_m, q_s, 0, ..., 0), r: measurement variance on the
    realized density, n: possible-edge count.
    """

    d: int
    n: int
    G: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    r: float


def check_variances(*variances: float) -> None:
    """Require every variance to be finite and non-negative."""
    for v in variances:
        if not math.isfinite(v):
            raise ValueError("variances must be finite")
        if v < 0:
            raise ValueError("variances must be non-negative")


def build_state_space(d: int, n: int, q_m: float, q_s: float, r: float) -> StateSpace:
    """Assemble the transition/observation model for one block."""
    if d < 2:
        raise ValueError("period d must be >= 2 (no seasonal structure below that)")
    if n < 1:
        raise ValueError("possible-edge count must be >= 1")
    check_variances(q_m, q_s, r)
    G = np.zeros((d, d))
    G[0, 0] = 1.0
    G[1, 1:] = -1.0
    if d > 2:
        G[2:, 1 : d - 1] = np.eye(d - 2)
    H = np.zeros(d)
    H[0] = H[1] = float(n)
    Q = np.zeros((d, d))
    Q[0, 0] = q_m
    Q[1, 1] = q_s
    return StateSpace(d=d, n=int(n), G=G, H=H, Q=Q, r=float(r))


def binomial_obs_noise(predicted_count: float, n: int) -> float:
    """Count-variance p*(1 - p/n) of the edge-sampling process.

    The prediction is clamped away from 0 and n so the variance stays
    strictly positive; a warning is emitted when the clamped count is in
    the regime where the Gaussian approximation is dubious.
    """
    if n < 1:
        raise ValueError("possible-edge count must be >= 1")
    lo = COUNT_CLAMP_EPS * n
    p_hat = min(max(float(predicted_count), lo), n - lo)
    if p_hat < NORMAL_APPROX_MIN_COUNT or n - p_hat < NORMAL_APPROX_MIN_COUNT:
        warnings.warn(
            f"predicted count {p_hat:.3g} of n={n} is too extreme for the "
            "Gaussian count approximation",
            NormalApproximationWarning,
            stacklevel=2,
        )
    return p_hat * (1.0 - p_hat / n)


def observation_variance(u_t: float, n: int, r: float) -> float:
    """Total per-step observation variance b_t = u_t + n^2 r (count^2 units)."""
    if u_t <= 0:
        raise ValueError("binomial observation noise must be strictly positive")
    check_variances(r)
    return u_t + n * n * r


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
        if self.d < 2:
            raise ValueError("period d must be >= 2")
        check_variances(self.q_m, self.q_s, self.r)
        mu0 = np.asarray(self.mu0, dtype=float)
        Sigma0 = np.asarray(self.Sigma0, dtype=float)
        if mu0.shape != (self.d,):
            raise ValueError(f"mu0 must have length d={self.d}")
        if Sigma0.shape != (self.d, self.d):
            raise ValueError(f"Sigma0 must be {self.d}x{self.d}")
        if not (np.isfinite(mu0).all() and np.isfinite(Sigma0).all()):
            raise ValueError("mu0 and Sigma0 must be finite")
        scale = max(np.abs(Sigma0).max(), 1.0)
        if np.abs(Sigma0 - Sigma0.T).max() > 1e-8 * scale:
            raise ValueError("Sigma0 must be symmetric")
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "Sigma0", 0.5 * (Sigma0 + Sigma0.T))

    def state_space(self, n: int) -> StateSpace:
        return build_state_space(self.d, n, self.q_m, self.q_s, self.r)
