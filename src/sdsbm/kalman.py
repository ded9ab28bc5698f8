"""Exact Gaussian belief propagation for one block.

Filter, smoother, forecasting and per-step predictive log-likelihood
for the linear-Gaussian count model.  Observations are scalar per block,
so the update step needs no matrix inversion.  The smoother gains
depend only on filter output, so all of them come from one stacked
pseudo-inverse of the one-step-ahead covariances before the backward
pass; a pseudo-inverse rather than a solve because the process
covariance is rank-deficient by construction (with a zero initial
covariance the first one-step-ahead covariance is singular).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph_model import BlockSeries
from .ssm import ModelParams, StateSpace, binomial_obs_noise, observation_variance

LOG_2PI = math.log(2.0 * math.pi)

# Relative cutoff for pseudo-inverting one-step-ahead covariances.
PINV_RCOND = 1e-12


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

    ``predicted``/``filtered`` arrays cover t = 1..T at index t-1;
    smoothed arrays cover t = 0..T at index t.  ``pred_loglik`` is NaN
    at steps with no observation.  ``smoother_gains[t]`` is the matrix
    J_t linking t and t+1, for t = 0..T-1.
    """

    init_mean: np.ndarray
    init_cov: np.ndarray
    pred_mean: np.ndarray
    pred_cov: np.ndarray
    filt_mean: np.ndarray
    filt_cov: np.ndarray
    gains: np.ndarray
    u: np.ndarray
    pred_loglik: np.ndarray
    smoothed_mean: np.ndarray | None = None
    smoothed_cov: np.ndarray | None = None
    smoother_gains: np.ndarray | None = None

    @property
    def T(self) -> int:
        return int(self.pred_mean.shape[0])

    @property
    def total_loglik(self) -> float:
        """Sum of per-step predictive log-densities over observed steps."""
        if self.T == 0:
            return 0.0
        return float(np.nansum(self.pred_loglik))

    def predicted(self, t: int) -> GaussianBelief:
        return GaussianBelief(self.pred_mean[t - 1], self.pred_cov[t - 1])

    def filtered(self, t: int) -> GaussianBelief:
        return GaussianBelief(self.filt_mean[t - 1], self.filt_cov[t - 1])

    def smoothed(self, t: int) -> GaussianBelief:
        if self.smoothed_mean is None:
            raise ValueError("smoother has not run")
        return GaussianBelief(self.smoothed_mean[t], self.smoothed_cov[t])


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
) -> tuple[GaussianBelief, np.ndarray, float]:
    """Condition a predicted belief on one observed count.

    Returns the filtered belief, the Kalman gain vector and the
    predictive log-density of ``w_t``.  The innovation variance
    H S H^T + b_t is scalar, so the gain is S H^T over that scalar.
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
    return GaussianBelief(mean=mean, cov=cov), gain, float(gaussian_logpdf(resid, S))


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
    T = counts.shape[0]
    D = ss.G.shape[0]
    seq = BeliefSequence(
        init_mean=np.asarray(mu0, dtype=float).copy(),
        init_cov=np.asarray(Sigma0, dtype=float).copy(),
        pred_mean=np.zeros((T, D)),
        pred_cov=np.zeros((T, D, D)),
        filt_mean=np.zeros((T, D)),
        filt_cov=np.zeros((T, D, D)),
        gains=np.zeros((T, D)),
        u=np.zeros(T),
        pred_loglik=np.full(T, np.nan),
    )
    belief = GaussianBelief(seq.init_mean, seq.init_cov)
    for t in range(T):
        belief = predict(belief, ss)
        seq.pred_mean[t] = belief.mean
        seq.pred_cov[t] = belief.cov
        u_t = binomial_obs_noise(float(ss.H @ belief.mean), ss.n)
        seq.u[t] = u_t
        if not np.isnan(counts[t]):
            try:
                belief, gain, loglik = update(belief, counts[t], ss, u_t)
            except ValueError as exc:
                raise FilterError(t + 1, str(exc)) from exc
            seq.gains[t] = gain
            seq.pred_loglik[t] = loglik
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

    Recursion from t = T (smoothed = filtered) down to t = 0 with gains
    J_t = S_{t|t} G^T pinv(S_{t+1|t}), all taken from one stacked
    pseudo-inverse before the recursion starts.
    """
    # start from the filtered beliefs at t = 0..T (the prior at t = 0)
    sm_mean = np.concatenate((beliefs.init_mean[None], beliefs.filt_mean))
    sm_cov = np.concatenate((beliefs.init_cov[None], beliefs.filt_cov))
    J = sm_cov[:-1] @ ss.G.T @ np.linalg.pinv(beliefs.pred_cov, rcond=PINV_RCOND, hermitian=True)
    bad = ~np.isfinite(J).all(axis=(1, 2))
    if bad.any():
        raise FilterError(int(np.argmax(bad)) + 1, "one-step-ahead covariance not invertible")
    for t in range(beliefs.T - 1, -1, -1):
        sm_mean[t] += J[t] @ (sm_mean[t + 1] - beliefs.pred_mean[t])
        cov = sm_cov[t] + J[t] @ (sm_cov[t + 1] - beliefs.pred_cov[t]) @ J[t].T
        sm_cov[t] = 0.5 * (cov + cov.T)
    return replace(beliefs, smoothed_mean=sm_mean, smoothed_cov=sm_cov, smoother_gains=J)


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
