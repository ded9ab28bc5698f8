"""Exact Gaussian belief propagation for a stack of blocks.

Filter, smoother, forecasting and per-step predictive log-likelihood
for the linear-Gaussian count model.  Every function takes B blocks of
one period at once: arrays carry a leading block axis, and one Python
loop over t advances all of them (a single block is a stack of one).
Observations are scalar per block, so nothing is inverted: the update
divides by each block's scalar innovation variance, and the smoother
runs the de Jong (1989) / Durbin & Koopman (§4.4) backward recursion
over the filter's innovations, exact even where the one-step-ahead
covariances are singular (zero ``Sigma0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph_model import BlockStack, pair_key
from .ssm import ParamStack, StateSpace, binomial_obs_noise, outside_normal_regime

LOG_2PI = math.log(2.0 * math.pi)


class FilterError(RuntimeError):
    """Belief propagation failed; ``t`` is the offending 1-based step and
    ``block`` the failing block's name."""

    def __init__(self, t: int, message: str, block: str):
        super().__init__(f"block {block}: t={t}: {message}")
        self.t = t
        self.block = block


@dataclass
class BeliefSequence:
    """Per-step beliefs of a filtered (optionally smoothed) stack of blocks.

    Axis 0 is the block.  Predicted and filtered arrays, the innovations
    and their variances (both NaN where unobserved) cover t = 1..T at
    index t-1 of axis 1; smoothed arrays cover t = 0..T at index t,
    ``smoothed_lag_cov[:, t]`` being Cov(x_{t+1}, x_t) given the whole
    series.  ``non_gaussian_steps`` counts each block's steps whose
    predicted count lies outside the Gaussian regime.
    """

    init_mean: np.ndarray
    init_cov: np.ndarray
    pred_mean: np.ndarray
    pred_cov: np.ndarray
    filt_mean: np.ndarray
    filt_cov: np.ndarray
    gains: np.ndarray
    u: np.ndarray
    innov: np.ndarray
    innov_var: np.ndarray
    non_gaussian_steps: np.ndarray
    smoothed_mean: np.ndarray | None = None
    smoothed_cov: np.ndarray | None = None
    smoothed_lag_cov: np.ndarray | None = None

    @property
    def T(self) -> int:
        return int(self.pred_mean.shape[1])

    @property
    def pred_loglik(self) -> np.ndarray:
        """Per-step predictive log-density of w_t; NaN where unobserved."""
        return gaussian_logpdf(self.innov, self.innov_var)

    @property
    def total_loglik(self) -> np.ndarray:
        """Each block's sum of predictive log-densities over observed steps."""
        return np.nansum(self.pred_loglik, axis=1)


def gaussian_logpdf(resid, var):
    """Log-density of a zero-mean Gaussian with variance ``var`` at ``resid``
    (elementwise for arrays)."""
    return -0.5 * (LOG_2PI + np.log(var) + resid * resid / var)


def _predict(mean: np.ndarray, cov: np.ndarray, ss: StateSpace, GT: np.ndarray):
    """Propagate every block's belief one step: mean G m, covariance
    G S G^T + Q.  ``GT`` is G^T, contiguous (matmul is faster on it)."""
    cov = ss.G @ cov @ GT + ss.Q
    return mean @ GT, 0.5 * (cov + cov.swapaxes(-1, -2))


def filter(blocks: BlockStack, params: ParamStack) -> BeliefSequence:
    """Forward pass of every block from its prior belief (mu0, Sigma0).

    The per-step observation noise u_t is recomputed from each predicted
    mean.  NaN counts are gaps: the update is skipped and the prediction
    carried forward with no likelihood contribution.  A non-positive
    innovation variance at an observed step raises ``FilterError`` naming
    the first such block.
    """
    if len(blocks) != len(params):
        raise ValueError("blocks and parameters differ in number")
    ss = params.state_space(blocks.n)
    (B, T), D = blocks.counts.shape, params.d
    seq = BeliefSequence(
        init_mean=params.mu0.copy(),
        init_cov=params.Sigma0.copy(),
        pred_mean=np.zeros((B, T, D)),
        pred_cov=np.zeros((B, T, D, D)),
        filt_mean=np.zeros((B, T, D)),
        filt_cov=np.zeros((B, T, D, D)),
        gains=np.zeros((B, T, D)),
        u=np.zeros((B, T)),
        innov=np.full((B, T), np.nan),
        innov_var=np.full((B, T), np.nan),
        non_gaussian_steps=np.zeros(B, dtype=int),
    )
    observed = ~np.isnan(blocks.counts)
    counts = np.where(observed, blocks.counts, 0.0)  # a gap's gain is zero
    mean, cov = seq.init_mean, seq.init_cov
    GT = ss.G.T.copy()
    measurement_var = ss.measurement_var  # b_t = u_t + n^2 r; n and r are checked already
    for t in range(T):
        mean, cov = _predict(mean, cov, ss, GT)
        seq.pred_mean[:, t], seq.pred_cov[:, t] = mean, cov
        hm = np.einsum("bi,bi->b", ss.H, mean)
        seq.u[:, t] = u = binomial_obs_noise(hm, ss.n)
        obs = observed[:, t]
        PH = np.einsum("bij,bj->bi", cov, ss.H)
        F = np.einsum("bi,bi->b", ss.H, PH) + u + measurement_var
        bad = obs & (F <= 0)
        if bad.any():
            b = int(np.argmax(bad))
            message = f"non-positive innovation variance {F[b]}"
            raise FilterError(t + 1, message, pair_key(blocks.pairs[b]))
        gain = np.divide(PH, F[:, None], out=seq.gains[:, t], where=obs[:, None])  # 0 at gaps
        seq.innov_var[:, t] = F
        seq.innov[:, t] = v = counts[:, t] - hm
        mean = mean + gain * v[:, None]
        cov = cov - gain[:, :, None] * PH[:, None, :]
        cov = 0.5 * (cov + cov.swapaxes(1, 2))
        seq.filt_mean[:, t], seq.filt_cov[:, t] = mean, cov
    seq.innov[~observed] = seq.innov_var[~observed] = np.nan
    pred_count = np.einsum("btj,bj->bt", seq.pred_mean, ss.H)
    regime = outside_normal_regime(pred_count, ss.n[:, None])
    seq.non_gaussian_steps = np.count_nonzero(regime, axis=1)
    return seq


def smooth(beliefs: BeliefSequence, ss: StateSpace) -> BeliefSequence:
    """Backward pass conditioning every belief on the whole series.

    From r_T = 0, N_T = 0 it runs, over the filter's innovations v_t,
    their variances F_t and L_t = G (I - k_t H) (G at a gap),
    r_{t-1} = H^T v_t / F_t + L_t^T r_t, N_{t-1} = H^T H / F_t + L_t^T N_t L_t.
    From the filtered moments (the prior at t = 0) the smoothed mean is
    m_{t|t} + S_{t|t} G^T r_t, the covariance S_{t|t} - S_{t|t} G^T N_t G S_{t|t}
    and the lag-one covariance Cov(x_{t+1}, x_t) = (I - S_{t+1|t} N_t) G S_{t|t}.
    """
    B, T, D = beliefs.pred_mean.shape
    v_over_F = np.nan_to_num(beliefs.innov / beliefs.innov_var)  # zero at gaps
    inv_F = np.nan_to_num(1.0 / beliefs.innov_var)
    L = ss.G - (beliefs.gains @ ss.G.T)[..., :, None] * ss.H[:, None, None, :]  # G (I - k H)
    LT = L.swapaxes(-1, -2)
    HH = ss.H[:, :, None] * ss.H[:, None, :]
    r, N = np.zeros((B, T + 1, D)), np.zeros((B, T + 1, D, D))
    for t in range(T - 1, -1, -1):
        r[:, t] = ss.H * v_over_F[:, t, None] + (LT[:, t] @ r[:, t + 1, :, None])[..., 0]
        N[:, t] = HH * inv_F[:, t, None, None] + LT[:, t] @ N[:, t + 1] @ L[:, t]
    mean = np.concatenate((beliefs.init_mean[:, None], beliefs.filt_mean), axis=1)
    cov = np.concatenate((beliefs.init_cov[:, None], beliefs.filt_cov), axis=1)
    GS = ss.G @ cov
    sm_cov = cov - GS.swapaxes(-1, -2) @ N @ GS
    return replace(
        beliefs,
        smoothed_mean=mean + np.einsum("btji,btj->bti", GS, r),
        smoothed_cov=0.5 * (sm_cov + sm_cov.swapaxes(-1, -2)),
        smoothed_lag_cov=(np.eye(D) - beliefs.pred_cov @ N[:, :-1]) @ GS[:, :-1],
    )


@dataclass
class Forecast:
    """Per-horizon count forecasts of a stack of blocks, (B, horizon) arrays.

    ``count_noise`` is the binomial variance at the forecast mean,
    ``measurement_var`` each block's horizon-constant n^2 r contribution
    and ``total_var = state_var + count_noise + measurement_var``.
    ``non_gaussian_steps`` counts each block's horizons whose forecast
    mean lies outside the Gaussian regime.
    """

    count_mean: np.ndarray
    state_var: np.ndarray
    count_noise: np.ndarray
    measurement_var: np.ndarray
    non_gaussian_steps: np.ndarray

    @property
    def total_var(self) -> np.ndarray:
        return self.state_var + self.count_noise + self.measurement_var[:, None]


def forecast(mean: np.ndarray, cov: np.ndarray, ss: StateSpace, horizon: int) -> Forecast:
    """Propagate each block's belief (mean (B, d), covariance (B, d, d))
    ``horizon`` steps with no updates."""
    if horizon < 1:
        raise ValueError("forecast horizon must be >= 1")
    count_mean = np.zeros((mean.shape[0], horizon))
    state_var = np.zeros_like(count_mean)
    GT = ss.G.T.copy()
    for k in range(horizon):
        mean, cov = _predict(mean, cov, ss, GT)
        count_mean[:, k] = np.einsum("bi,bi->b", ss.H, mean)
        state_var[:, k] = np.einsum("bi,bij,bj->b", ss.H, cov, ss.H)
    n = ss.n[:, None]
    return Forecast(
        count_mean=count_mean,
        state_var=state_var,
        count_noise=binomial_obs_noise(count_mean, n),
        measurement_var=ss.measurement_var,
        non_gaussian_steps=np.count_nonzero(outside_normal_regime(count_mean, n), axis=1),
    )
