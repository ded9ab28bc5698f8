"""Exact Gaussian belief propagation for one block.

Filter, smoother, forecasting and per-step predictive log-likelihood
for the linear-Gaussian count model.  Observations are scalar per block,
so nothing is inverted: the update divides by the scalar innovation
variance, and the smoother runs the de Jong (1989) / Durbin & Koopman
(§4.4) backward recursion over the filter's innovations, exact even
where the one-step-ahead covariances are singular (zero ``Sigma0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph_model import BlockSeries
from .ssm import ModelParams, StateSpace, binomial_obs_noise, observation_variance

LOG_2PI = math.log(2.0 * math.pi)


class FilterError(RuntimeError):
    """Belief propagation failed; ``t`` is the offending 1-based step."""

    def __init__(self, t: int, message: str):
        super().__init__(f"t={t}: {message}")
        self.t = t


@dataclass
class GaussianBelief:
    """Gaussian state belief (mean vector, covariance matrix)."""

    mean: np.ndarray
    cov: np.ndarray

    def validate(self, sym_rtol: float = 1e-10, psd_rtol: float = 1e-8) -> None:
        """Raise if the covariance is visibly asymmetric or indefinite."""
        scale = max(np.abs(self.cov).max(), 1e-300)
        if np.abs(self.cov - self.cov.T).max() > sym_rtol * scale:
            raise ValueError("covariance is not symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (self.cov + self.cov.T))
        floor = -psd_rtol * max(np.trace(self.cov), 1e-300)
        if eigs.min() < floor:
            raise ValueError(f"covariance has eigenvalue {eigs.min():.3e} below {floor:.3e}")


@dataclass
class BeliefSequence:
    """Per-step beliefs of one filtered (optionally smoothed) block.

    Predicted and filtered arrays, the innovations and their variances
    (both NaN where unobserved) cover t = 1..T at index t-1; smoothed
    arrays cover t = 0..T at index t, ``smoothed_lag_cov[t]`` being
    Cov(x_{t+1}, x_t) given the whole series.
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
    smoothed_mean: np.ndarray | None = None
    smoothed_cov: np.ndarray | None = None
    smoothed_lag_cov: np.ndarray | None = None

    @property
    def T(self) -> int:
        return int(self.pred_mean.shape[0])

    @property
    def pred_loglik(self) -> np.ndarray:
        """Per-step predictive log-density of w_t; NaN where unobserved."""
        return gaussian_logpdf(self.innov, self.innov_var)

    @property
    def total_loglik(self) -> float:
        """Sum of per-step predictive log-densities over observed steps."""
        return float(np.nansum(self.pred_loglik))

    def filtered(self, t: int) -> GaussianBelief:
        return GaussianBelief(self.filt_mean[t - 1], self.filt_cov[t - 1])


def gaussian_logpdf(resid, var):
    """Log-density of a zero-mean Gaussian with variance ``var`` at ``resid``
    (elementwise for arrays)."""
    return -0.5 * (LOG_2PI + np.log(var) + resid * resid / var)


def predict(belief: GaussianBelief, ss: StateSpace) -> GaussianBelief:
    """Propagate a belief one step: mean G m, covariance G S G^T + Q."""
    mean = ss.G @ belief.mean
    cov = ss.G @ belief.cov @ ss.G.T + ss.Q
    cov = 0.5 * (cov + cov.T)
    return GaussianBelief(mean=mean, cov=cov)


def update(
    predicted: GaussianBelief,
    w_t: float,
    ss: StateSpace,
    u_t: float,
) -> tuple[GaussianBelief, np.ndarray, float, float]:
    """Condition a predicted belief on one observed count.

    Returns the filtered belief, the Kalman gain vector, the innovation
    ``w_t - H m`` and its variance H S H^T + b_t.  That variance is
    scalar, so the gain is S H^T over it.
    """
    b_t = observation_variance(u_t, ss.n, ss.r)
    PH = predicted.cov @ ss.H
    S = float(ss.H @ PH) + b_t
    if S <= 0:
        raise ValueError(f"non-positive innovation variance {S}")
    gain = PH / S
    resid = float(w_t) - float(ss.H @ predicted.mean)
    mean = predicted.mean + gain * resid
    cov = predicted.cov - np.outer(gain, PH)
    cov = 0.5 * (cov + cov.T)
    return GaussianBelief(mean=mean, cov=cov), gain, resid, S


def run_filter(
    counts: np.ndarray,
    ss: StateSpace,
    mu0: np.ndarray,
    Sigma0: np.ndarray,
) -> BeliefSequence:
    """Forward pass over a count series from the prior belief (mu0, Sigma0).

    The per-step observation noise u_t is recomputed from each predicted
    mean.  NaN entries in ``counts`` are treated as gaps: the update is
    skipped and the prediction carried forward with no likelihood
    contribution.
    """
    counts = np.asarray(counts, dtype=float)
    T, D = counts.shape[0], ss.G.shape[0]
    seq = BeliefSequence(
        init_mean=np.asarray(mu0, dtype=float).copy(),
        init_cov=np.asarray(Sigma0, dtype=float).copy(),
        pred_mean=np.zeros((T, D)),
        pred_cov=np.zeros((T, D, D)),
        filt_mean=np.zeros((T, D)),
        filt_cov=np.zeros((T, D, D)),
        gains=np.zeros((T, D)),
        u=np.zeros(T),
        innov=np.full(T, np.nan),
        innov_var=np.full(T, np.nan),
    )
    belief = GaussianBelief(seq.init_mean, seq.init_cov)
    for t in range(T):
        belief = predict(belief, ss)
        seq.pred_mean[t] = belief.mean
        seq.pred_cov[t] = belief.cov
        seq.u[t] = u_t = binomial_obs_noise(float(ss.H @ belief.mean), ss.n)
        if not np.isnan(counts[t]):
            try:
                belief, seq.gains[t], seq.innov[t], seq.innov_var[t] = update(belief, counts[t], ss, u_t)
            except ValueError as exc:
                raise FilterError(t + 1, str(exc)) from exc
        seq.filt_mean[t] = belief.mean
        seq.filt_cov[t] = belief.cov
    return seq


def filter(series: BlockSeries, params: ModelParams) -> BeliefSequence:
    """Filter one block's series under the given model parameters."""
    if series.n < 1:
        raise ValueError("cannot filter a block with no possible edges")
    ss = params.state_space(series.n)
    return run_filter(series.counts, ss, params.mu0, params.Sigma0)


def smooth(beliefs: BeliefSequence, ss: StateSpace) -> BeliefSequence:
    """Backward pass conditioning every belief on the whole series.

    From r_T = 0, N_T = 0 it runs, over the filter's innovations v_t,
    their variances F_t and L_t = G (I - k_t H) (G at a gap),
    r_{t-1} = H^T v_t / F_t + L_t^T r_t, N_{t-1} = H^T H / F_t + L_t^T N_t L_t.
    From the filtered moments (the prior at t = 0) the smoothed mean is
    m_{t|t} + S_{t|t} G^T r_t, the covariance S_{t|t} - S_{t|t} G^T N_t G S_{t|t}
    and the lag-one covariance Cov(x_{t+1}, x_t) = (I - S_{t+1|t} N_t) G S_{t|t}.
    """
    T, D = beliefs.T, ss.G.shape[0]
    v_over_F = np.nan_to_num(beliefs.innov / beliefs.innov_var)  # zero at gaps
    inv_F = np.nan_to_num(1.0 / beliefs.innov_var)
    L = ss.G @ (np.eye(D) - beliefs.gains[:, :, None] * ss.H)
    HH = np.outer(ss.H, ss.H)
    r, N = np.zeros((T + 1, D)), np.zeros((T + 1, D, D))
    for t in range(T - 1, -1, -1):
        r[t] = ss.H * v_over_F[t] + L[t].T @ r[t + 1]
        N[t] = HH * inv_F[t] + L[t].T @ N[t + 1] @ L[t]
    mean = np.concatenate((beliefs.init_mean[None], beliefs.filt_mean))
    cov = np.concatenate((beliefs.init_cov[None], beliefs.filt_cov))
    GS = ss.G @ cov
    sm_cov = cov - GS.transpose(0, 2, 1) @ N @ GS
    return replace(
        beliefs,
        smoothed_mean=mean + np.einsum("tji,tj->ti", GS, r),
        smoothed_cov=0.5 * (sm_cov + sm_cov.transpose(0, 2, 1)),
        smoothed_lag_cov=(np.eye(D) - beliefs.pred_cov @ N[:-1]) @ GS[:-1],
    )


@dataclass
class Forecast:
    """Per-horizon forecast of one block's counts.

    ``count_noise`` is the binomial variance at the forecast mean,
    ``measurement_var`` the horizon-constant n^2 r contribution and
    ``total_var = state_var + count_noise + measurement_var``.
    """

    count_mean: np.ndarray
    state_var: np.ndarray
    count_noise: np.ndarray
    measurement_var: float

    @property
    def total_var(self) -> np.ndarray:
        return self.state_var + self.count_noise + self.measurement_var

    @property
    def horizon(self) -> int:
        return int(self.count_mean.shape[0])


def forecast(
    last_filtered: GaussianBelief,
    ss: StateSpace,
    horizon: int,
) -> Forecast:
    """Propagate the final belief ``horizon`` steps with no updates."""
    if horizon < 1:
        raise ValueError("forecast horizon must be >= 1")
    belief = last_filtered
    count_mean = np.zeros(horizon)
    state_var = np.zeros(horizon)
    count_noise = np.zeros(horizon)
    for k in range(horizon):
        belief = predict(belief, ss)
        count_mean[k] = float(ss.H @ belief.mean)
        state_var[k] = float(ss.H @ belief.cov @ ss.H)
        count_noise[k] = binomial_obs_noise(count_mean[k], ss.n)
    return Forecast(
        count_mean=count_mean,
        state_var=state_var,
        count_noise=count_noise,
        measurement_var=ss.n * ss.n * ss.r,
    )
