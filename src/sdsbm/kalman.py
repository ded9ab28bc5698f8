"""Exact Gaussian belief propagation for a stack of blocks.

Filter, smoother and per-step predictive log-likelihood for the
linear-Gaussian count model.  Every function takes B blocks of one
period at once: arrays carry a leading block axis, and one Python loop
over t advances all of them (a single block is a stack of one).
Observations are scalar per block, so nothing is inverted: the update
divides by each block's scalar innovation variance.  The model is read
off ``BlockStack.n`` and the ``ParamStack``, and its layout off ``ssm``:
G is ``ssm.transition``, a product with H is ``ssm.observe``, and Q,
never built, adds ``ParamStack.q`` at the entries ``ssm.DRIVEN``.  The
filter keeps its covariance as a loop variable and records only per-step
scalars and the vector p_t = P_t H^T.  The smoother is the disturbance
smoother (Koopman 1993; Durbin & Koopman, *Time Series Analysis by State
Space Methods*, §4.5.3): the de Jong backward recursion for r_t and N_t
over the filter's innovations, exact even where the one-step-ahead
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
from .ssm import DRIVEN, ParamStack, binomial_obs_noise, observe, outside_normal_regime, transition

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

    ``params`` and ``n`` are the parameters and possible-edge counts the
    filter ran under, the whole model.  Axis 0 is the block; per-step
    arrays cover t = 1..T at index t-1 of axis 1.  The filter records the
    predicted count H a_t, the vector ``PH`` p_t = P_t H^T (P_t the
    one-step-ahead state covariance), the binomial noise u_t, the
    innovation v_t (NaN where unobserved) and its variance
    F_t = H p_t + u_t + n^2 r, and the belief after the last step (the
    prior when T = 0).  ``non_gaussian_steps`` counts each block's steps
    whose predicted count lies outside the Gaussian regime.

    The smoother adds the count's moments given the whole series, the
    expected squared observation disturbance ``quad`` E[(w_t - H x_t)^2]
    (NaN where unobserved), the expected squared state disturbances
    ``eta_sq`` E[eta_{t,i}^2] of eta_t = x_t - G x_{t-1} at the entries
    i that Q drives, in ``ParamStack.q``'s order, and the moments of x_0.
    """

    params: ParamStack
    n: np.ndarray
    pred_count: np.ndarray
    PH: np.ndarray
    u: np.ndarray
    innov: np.ndarray
    innov_var: np.ndarray
    final_mean: np.ndarray
    final_cov: np.ndarray
    non_gaussian_steps: np.ndarray
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
    def measurement_var(self) -> np.ndarray:
        """Each block's measurement variance in count^2 units, n^2 r."""
        return self.n * self.n * self.params.r

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
    variance.  One check after the pass raises ``FilterError`` at the first
    step, then block, with a non-finite H a_t or F_t, or with a
    non-positive F_t where w_t is observed.
    """
    if len(blocks) != len(params):
        raise ValueError("blocks and parameters differ in number")
    (B, T), D = blocks.counts.shape, params.d
    pred_count, u, innov, innov_var = (np.zeros((B, T)) for _ in range(4))
    PH = np.zeros((B, T, D))
    seq = BeliefSequence(
        params, blocks.n, pred_count, PH, u, innov, innov_var,
        final_mean=params.mu0, final_cov=params.Sigma0, non_gaussian_steps=np.zeros(B, dtype=int),
    )
    observed = ~np.isnan(blocks.counts)
    counts = np.where(observed, blocks.counts, 0.0)  # a gap's gain is zero
    mean, cov = params.mu0, params.Sigma0
    G = transition(D)
    GT = G.T.copy()  # contiguous: matmul is faster on it
    n, n_col = blocks.n, blocks.n[:, None]
    q = params.q  # Q's non-zero entries
    pred = np.empty((B, D, D))  # G P G^T + Q, rewritten every step
    pred_diag = pred.reshape(B, D * D)[:, :: D + 1][:, DRIVEN]  # where Q adds q
    # a bad count mean or F_t, overflowed or not, raises after the pass
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        measurement_var = seq.measurement_var  # b_t = u_t + n^2 r
        for t in range(T):
            np.matmul(G @ cov, GT, out=pred)  # predict: G m and G P G^T + Q
            pred_diag += q
            mean, cov = mean @ GT, 0.5 * (pred + pred.swapaxes(1, 2))
            pred_count[:, t] = hm = observe(mean, n)  # H a_t
            u[:, t] = u_t = binomial_obs_noise(hm, n)
            PH[:, t] = p = observe(cov, n_col)  # P_t H^T
            innov_var[:, t] = F = observe(p, n) + u_t + measurement_var
            obs = observed[:, t, None]
            gain = np.divide(p, F[:, None], out=np.zeros((B, D)), where=obs)  # 0 at gaps
            innov[:, t] = v = counts[:, t] - hm
            mean = mean + gain * v[:, None]
            cov = cov - gain[:, :, None] * p[:, None, :]
            cov = 0.5 * (cov + cov.swapaxes(1, 2))
    finite = np.isfinite(pred_count) & np.isfinite(innov_var)
    bad = ~finite | (observed & (innov_var <= 0))
    if bad.any():
        t, b = np.argwhere(bad.T)[0]  # the first bad step, then its first bad block
        message = (f"non-positive innovation variance {innov_var[b, t]}" if finite[b, t] else
                   f"predicted count {pred_count[b, t]} and innovation variance "
                   f"{innov_var[b, t]} are not both finite")
        raise FilterError(int(t) + 1, message, pair_key(blocks.pairs[b]))
    innov[~observed] = np.nan
    seq.final_mean, seq.final_cov = mean, cov
    seq.non_gaussian_steps = np.count_nonzero(outside_normal_regime(pred_count, n[:, None]), axis=1)
    return seq


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
    covariance Sigma0 - Sigma0 G^T N_0 G Sigma0.  With H = n E for the
    selector E = ``ssm.observe(I, 1)``, K_t H is (n K_t) E^T and H^T H / F_t
    is (n^2 / F_t) E E^T.
    """
    B, T, D = beliefs.PH.shape
    params, n = beliefs.params, beliefs.n[:, None]
    G, E = transition(D), observe(np.eye(D), 1.0)  # H = n E
    EE = np.outer(E, E)
    observed = ~np.isnan(beliefs.innov)
    F, PH = beliefs.innov_var, beliefs.PH
    n_v_over_F = n * np.divide(beliefs.innov, F, out=np.zeros((B, T)), where=observed)
    n2_over_F = (n * n) * np.divide(1.0, F, out=np.zeros((B, T)), where=observed)
    K = np.divide(PH, F[..., None], out=np.zeros((B, T, D)), where=observed[..., None]) @ G.T
    nK = n[..., None] * K
    r, N = np.zeros((B, T + 1, D)), np.zeros((B, D, D))
    pNp, N_diag = np.zeros((B, T)), np.zeros((B, T, 2))
    for t in range(T - 1, -1, -1):
        L = G - nK[:, t, :, None] * E
        LT = L.swapaxes(1, 2)
        r[:, t] = n_v_over_F[:, t, None] * E + (LT @ r[:, t + 1, :, None])[..., 0]
        N = n2_over_F[:, t, None, None] * EE + LT @ N @ L
        pNp[:, t] = np.einsum("bi,bij,bj->b", PH[:, t], N, PH[:, t])
        N_diag[:, t] = N.diagonal(axis1=1, axis2=2)[:, DRIVEN]
    correction = np.einsum("btj,btj->bt", PH, r[:, :T])
    count_var = observe(PH, n) - pNp  # H p_t - p_t^T N p_t
    q = params.q[:, None, :]
    GS = G @ params.Sigma0
    x0_cov = params.Sigma0 - GS.swapaxes(1, 2) @ N @ GS
    return replace(
        beliefs,
        smoothed_count=beliefs.pred_count + correction,
        smoothed_count_var=count_var,
        quad=(beliefs.innov - correction) ** 2 + count_var,
        eta_sq=q + q * q * (r[:, :T, DRIVEN] ** 2 - N_diag),
        x0_mean=params.mu0 + np.einsum("bji,bj->bi", GS, r[:, 0]),
        x0_cov=0.5 * (x0_cov + x0_cov.swapaxes(1, 2)),
    )
