"""Exact Gaussian belief propagation for a stack of blocks.

Filter, smoother and per-step predictive log-likelihood for the
linear-Gaussian count model.  Every function takes B blocks of one
period at once: arrays carry a leading block axis, and one Python
loop over t advances all of them (a single block is a stack of one).
Observations are scalar per block, so nothing is inverted: the update
divides by each block's scalar innovation variance.  The filter keeps
its covariance as a loop variable and records only per-step scalars
and the vector p_t = P_t H^T.  The smoother is the disturbance smoother
(Koopman 1993; Durbin & Koopman, *Time Series Analysis by State Space
Methods*, §4.5.3): the de Jong backward recursion for r_t and N_t over
the filter's innovations, exact even where the one-step-ahead
covariances are singular (zero ``Sigma0``), from which it reads the
smoothed count, disturbance and initial-state moments that EM and
scoring use.  A forecast is the filter run over future gaps (Durbin &
Koopman §4.11): its one-step-ahead count mean H a_t and variance F_t at
steps appended with ``BlockStack.with_gaps``.
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
    """Per-step summaries of a filtered (optionally smoothed) stack of blocks.

    Axis 0 is the block; per-step arrays cover t = 1..T at index t-1 of
    axis 1.  The filter records the predicted count H a_t, the vector
    ``PH`` p_t = P_t H^T (P_t the one-step-ahead state covariance), the
    binomial noise u_t, the innovation v_t (NaN where unobserved) and
    its variance F_t = H p_t + u_t + n^2 r, and the belief after the
    last step (the prior when T = 0).  ``non_gaussian_steps`` counts each
    block's steps whose predicted count lies outside the Gaussian regime,
    and ``ss`` is the state space the filter ran under.

    The smoother adds the count's moments given the whole series, the
    expected squared observation disturbance ``quad`` E[(w_t - H x_t)^2]
    (NaN where unobserved), the expected squared state disturbances
    ``eta_sq[..., i]`` E[eta_{t,i}^2] of eta_t = x_t - G x_{t-1} for the
    bias (i = 0) and the seasonal offset (i = 1), and the moments of x_0.
    """

    init_mean: np.ndarray
    init_cov: np.ndarray
    pred_count: np.ndarray
    PH: np.ndarray
    u: np.ndarray
    innov: np.ndarray
    innov_var: np.ndarray
    final_mean: np.ndarray
    final_cov: np.ndarray
    non_gaussian_steps: np.ndarray
    ss: StateSpace
    smoothed_count: np.ndarray | None = None
    smoothed_count_var: np.ndarray | None = None
    quad: np.ndarray | None = None
    eta_sq: np.ndarray | None = None
    x0_mean: np.ndarray | None = None
    x0_cov: np.ndarray | None = None

    @property
    def T(self) -> int:
        return int(self.pred_count.shape[1])

    @property
    def pred_loglik(self) -> np.ndarray:
        """Per-step predictive log-density of w_t; NaN where unobserved."""
        # F_t > 0 is only checked where w_t is observed; elsewhere the
        # NaN innovation gives NaN whatever F_t is
        with np.errstate(divide="ignore", invalid="ignore"):
            return gaussian_logpdf(self.innov, self.innov_var)

    @property
    def total_loglik(self) -> np.ndarray:
        """Each block's sum of predictive log-densities over observed steps."""
        return np.nansum(self.pred_loglik, axis=1)


def gaussian_logpdf(resid, var):
    """Log-density of a zero-mean Gaussian with variance ``var`` at ``resid``
    (elementwise for arrays)."""
    return -0.5 * (LOG_2PI + np.log(var) + resid * resid / var)


def filter(blocks: BlockStack, params: ParamStack) -> BeliefSequence:
    """Forward pass of every block from its prior belief (mu0, Sigma0).

    The per-step observation noise u_t is recomputed from each predicted
    mean.  NaN counts are gaps: the update is skipped and the prediction
    carried forward with no likelihood contribution, so at trailing gaps
    ``pred_count`` and ``innov_var`` are the count forecast's mean and
    variance.  A non-positive innovation variance at an observed step
    raises ``FilterError`` naming the first such block.
    """
    if len(blocks) != len(params):
        raise ValueError("blocks and parameters differ in number")
    ss = params.state_space(blocks.n)
    (B, T), D = blocks.counts.shape, params.d
    pred_count, u, innov, innov_var = (np.zeros((B, T)) for _ in range(4))
    PH = np.zeros((B, T, D))
    observed = ~np.isnan(blocks.counts)
    counts = np.where(observed, blocks.counts, 0.0)  # a gap's gain is zero
    mean, cov = params.mu0, params.Sigma0
    GT = ss.G.T.copy()  # contiguous: matmul is faster on it
    measurement_var = ss.measurement_var  # b_t = u_t + n^2 r; n and r are checked already
    for t in range(T):
        cov = ss.G @ cov @ GT + ss.Q  # predict: G m and G S G^T + Q
        mean, cov = mean @ GT, 0.5 * (cov + cov.swapaxes(-1, -2))
        pred_count[:, t] = hm = np.einsum("bi,bi->b", ss.H, mean)
        u[:, t] = u_t = binomial_obs_noise(hm, ss.n)
        PH[:, t] = p = np.einsum("bij,bj->bi", cov, ss.H)
        innov_var[:, t] = F = np.einsum("bi,bi->b", ss.H, p) + u_t + measurement_var
        obs = observed[:, t]
        if not obs.any():
            continue  # no update: the belief is the (symmetric) prediction
        bad = obs & (F <= 0)
        if bad.any():
            b = int(np.argmax(bad))
            message = f"non-positive innovation variance {F[b]}"
            raise FilterError(t + 1, message, pair_key(blocks.pairs[b]))
        gain = np.divide(p, F[:, None], out=np.zeros((B, D)), where=obs[:, None])  # 0 at gaps
        innov[:, t] = v = counts[:, t] - hm
        mean = mean + gain * v[:, None]
        cov = cov - gain[:, :, None] * p[:, None, :]
        cov = 0.5 * (cov + cov.swapaxes(1, 2))
    innov[~observed] = np.nan
    regime = outside_normal_regime(pred_count, ss.n[:, None])
    return BeliefSequence(
        init_mean=params.mu0,
        init_cov=params.Sigma0,
        pred_count=pred_count,
        PH=PH,
        u=u,
        innov=innov,
        innov_var=innov_var,
        final_mean=mean,
        final_cov=cov,
        non_gaussian_steps=np.count_nonzero(regime, axis=1),
        ss=ss,
    )


def smooth(beliefs: BeliefSequence) -> BeliefSequence:
    """Backward pass conditioning every block on its whole series.

    From r_T = 0 and N_T = 0 it runs, over the filter's innovations v_t,
    their variances F_t and L_t = G - K_t H with K_t = G p_t / F_t (G at
    a gap), r_{t-1} = H^T v_t / F_t + L_t^T r_t and
    N_{t-1} = H^T H / F_t + L_t^T N_t L_t, N being a loop variable.  Given
    the whole series the count H x_t has mean H a_t + p_t^T r_{t-1} and
    variance H p_t - p_t^T N_{t-1} p_t, and the observation disturbance
    w_t - H x_t the residual of that mean and the same variance (equal to
    b_t (v_t / F_t - K_t^T r_t) and b_t - b_t^2 (1/F_t + K_t^T N_t K_t)).
    The state disturbance x_t - G x_{t-1} has mean Q r_{t-1} and
    covariance Q - Q N_{t-1} Q, and x_0 has mean mu0 + Sigma0 G^T r_0 and
    covariance Sigma0 - Sigma0 G^T N_0 G Sigma0.
    """
    B, T, D = beliefs.PH.shape
    ss = beliefs.ss
    observed = ~np.isnan(beliefs.innov)
    F, PH = beliefs.innov_var, beliefs.PH
    v_over_F = np.divide(beliefs.innov, F, out=np.zeros((B, T)), where=observed)
    inv_F = np.divide(1.0, F, out=np.zeros((B, T)), where=observed)
    K = np.divide(PH, F[..., None], out=np.zeros((B, T, D)), where=observed[..., None]) @ ss.G.T
    HH = ss.H[:, :, None] * ss.H[:, None, :]
    r, N = np.zeros((B, T + 1, D)), np.zeros((B, D, D))
    pNp, N_diag = np.zeros((B, T)), np.zeros((B, T, 2))
    for t in range(T - 1, -1, -1):
        L = ss.G - K[:, t, :, None] * ss.H[:, None, :]
        LT = L.swapaxes(1, 2)
        r[:, t] = ss.H * v_over_F[:, t, None] + (LT @ r[:, t + 1, :, None])[..., 0]
        N = HH * inv_F[:, t, None, None] + LT @ N @ L
        pNp[:, t] = np.einsum("bi,bij,bj->b", PH[:, t], N, PH[:, t])
        N_diag[:, t] = N[:, (0, 1), (0, 1)]
    correction = np.einsum("btj,btj->bt", PH, r[:, :T])
    count_var = np.einsum("bj,btj->bt", ss.H, PH) - pNp
    q = ss.Q[:, (0, 1), (0, 1)][:, None, :]
    GS = ss.G @ beliefs.init_cov
    x0_cov = beliefs.init_cov - GS.swapaxes(1, 2) @ N @ GS
    return replace(
        beliefs,
        smoothed_count=beliefs.pred_count + correction,
        smoothed_count_var=count_var,
        quad=(beliefs.innov - correction) ** 2 + count_var,
        eta_sq=q + q * q * (r[:, :T, :2] ** 2 - N_diag),
        x0_mean=beliefs.init_mean + np.einsum("bji,bj->bi", GS, r[:, 0]),
        x0_cov=0.5 * (x0_cov + x0_cov.swapaxes(1, 2)),
    )
