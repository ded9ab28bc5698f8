"""Per-block reference recursions for the batched Kalman/EM core.

One block at a time, one Python step at a time: the predict/update
filter, the de Jong backward pass, the smoothed moments and plain EM
with a scalar r-step, written as plainly as possible.  The batched code
in ``sdsbm.kalman`` and ``sdsbm.em`` must match these block by block.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from sdsbm.em import Q_FLOOR, R_MAX, r_objective
from sdsbm.ssm import ModelParams, binomial_obs_noise

from gaussian_oracle import dense_model


def predict(mean, cov, ss):
    """Propagate a belief one step: mean G m, covariance G S G^T + Q."""
    cov = ss.G @ cov @ ss.G.T + ss.Q
    return ss.G @ mean, 0.5 * (cov + cov.T)


def update(mean, cov, w_t, ss, u_t):
    """Condition a predicted belief on one observed count; returns the
    filtered mean and covariance, the gain, the innovation and its
    variance."""
    b_t = u_t + ss.measurement_var
    PH = cov @ ss.H
    S = float(ss.H @ PH) + b_t
    if S <= 0:
        raise ValueError(f"non-positive innovation variance {S}")
    gain = PH / S
    resid = float(w_t) - float(ss.H @ mean)
    cov = cov - np.outer(gain, PH)
    return mean + gain * resid, 0.5 * (cov + cov.T), gain, resid, S


def run_filter(counts, ss, mu0, Sigma0):
    """Forward pass over one block's counts (NaN = gap)."""
    counts = np.asarray(counts, dtype=float)
    T, D = counts.shape[0], ss.G.shape[0]
    seq = SimpleNamespace(
        init_mean=np.asarray(mu0, dtype=float), init_cov=np.asarray(Sigma0, dtype=float),
        pred_mean=np.zeros((T, D)), pred_cov=np.zeros((T, D, D)),
        filt_mean=np.zeros((T, D)), filt_cov=np.zeros((T, D, D)),
        gains=np.zeros((T, D)), u=np.zeros(T),
        innov=np.full(T, np.nan), innov_var=np.full(T, np.nan),
    )
    mean, cov = seq.init_mean, seq.init_cov
    for t in range(T):
        mean, cov = predict(mean, cov, ss)
        seq.pred_mean[t], seq.pred_cov[t] = mean, cov
        seq.u[t] = u_t = binomial_obs_noise(float(ss.H @ mean), ss.n)
        if not np.isnan(counts[t]):
            mean, cov, seq.gains[t], seq.innov[t], seq.innov_var[t] = update(
                mean, cov, counts[t], ss, u_t
            )
        seq.filt_mean[t], seq.filt_cov[t] = mean, cov
    ll = -0.5 * (math.log(2.0 * math.pi) + np.log(seq.innov_var) + seq.innov**2 / seq.innov_var)
    seq.total_loglik = float(np.nansum(ll))
    return seq


def smooth(seq, ss):
    """de Jong backward pass; adds smoothed means and covariances
    (t = 0..T) and lag-one covariances Cov(x_{t+1}, x_t) to ``seq``."""
    T, D = seq.pred_mean.shape
    r, N = np.zeros((T + 1, D)), np.zeros((T + 1, D, D))
    for t in range(T - 1, -1, -1):
        L = ss.G @ (np.eye(D) - np.outer(seq.gains[t], ss.H))
        observed = not np.isnan(seq.innov[t])
        r[t] = L.T @ r[t + 1]
        N[t] = L.T @ N[t + 1] @ L
        if observed:
            r[t] += ss.H * seq.innov[t] / seq.innov_var[t]
            N[t] += np.outer(ss.H, ss.H) / seq.innov_var[t]
    mean = np.concatenate((seq.init_mean[None], seq.filt_mean))
    cov = np.concatenate((seq.init_cov[None], seq.filt_cov))
    seq.smoothed_mean = np.array([mean[t] + cov[t] @ ss.G.T @ r[t] for t in range(T + 1)])
    sm_cov = [cov[t] - cov[t] @ ss.G.T @ N[t] @ ss.G @ cov[t] for t in range(T + 1)]
    seq.smoothed_cov = np.array([0.5 * (c + c.T) for c in sm_cov]).reshape(T + 1, D, D)
    seq.smoothed_lag_cov = np.array(
        [(np.eye(D) - seq.pred_cov[t] @ N[t]) @ ss.G @ cov[t] for t in range(T)]
    ).reshape(T, D, D)
    return seq


def moments(seq):
    """Smoothed E[x_t], E[x_t x_t^T] (t = 0..T) and E[x_t x_{t-1}^T] (t = 1..T)."""
    m = seq.smoothed_mean
    Exx = np.array([seq.smoothed_cov[t] + np.outer(m[t], m[t]) for t in range(len(m))])
    lag = np.array(
        [seq.smoothed_lag_cov[t] + np.outer(m[t + 1], m[t]) for t in range(len(m) - 1)]
    ).reshape(-1, m.shape[1], m.shape[1])
    return m, Exx, lag


def m_step_r(Ex, Exx, counts, u, n, H):
    """One block's r-step: 30-point log grid, bracketed safeguarded
    Newton, and the r = 0 candidate."""
    mask = ~np.isnan(counts)
    w, u = counts[mask], u[mask]
    if w.size == 0:
        return 0.0
    quad = w * w - 2.0 * w * (Ex[1:][mask] @ H) + np.einsum("i,tij,j->t", H, Exx[1:][mask], H)
    grid = np.minimum(np.geomspace(1e-12, 1.0, 30), R_MAX)
    best = int(np.argmax(r_objective(grid, quad, u, n)))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    r = float(grid[best])
    n2 = float(n) * n
    for _ in range(100):
        v = u + n2 * r
        grad = 0.5 * n2 * np.sum((quad - v) / v**2)
        hess = 0.5 * n2 * n2 * np.sum((v - 2.0 * quad) / v**3)
        if grad > 0:
            lo = r
        elif grad < 0:
            hi = r
        else:
            break
        newton = r - grad / hess if hess < 0 else -math.inf
        r_next = newton if lo < newton < hi else math.sqrt(lo * hi)
        done = abs(r_next - r) <= 1e-14 * r
        r = r_next
        if done:
            break
    return 0.0 if r_objective(0.0, quad, u, n) >= r_objective(r, quad, u, n) else r


def em_fit(counts, n, init: ModelParams, max_iter, tol, fix_r_to_zero=False):
    """Plain EM on one block; returns the final parameters and one
    (loglik, q_m, q_s, r) row per iteration, and whether it converged."""
    params = init
    if fix_r_to_zero:
        params = ModelParams(d=init.d, q_m=init.q_m, q_s=init.q_s, r=0.0, mu0=init.mu0, Sigma0=init.Sigma0)
    rows = []
    for i in range(max_iter):
        ss = dense_model(params, n)
        seq = smooth(run_filter(counts, ss, params.mu0, params.Sigma0), ss)
        Ex, Exx, lag = moments(seq)
        mu0 = Ex[0]
        Sigma0 = Exx[0] - np.outer(mu0, mu0)
        G = ss.G
        resid = np.array(
            [Exx[t] - lag[t - 1] @ G.T - G @ lag[t - 1].T + G @ Exx[t - 1] @ G.T for t in range(1, len(Ex))]
        )
        q_m = max(float(resid[:, 0, 0].mean()), Q_FLOOR)
        q_s = max(float(resid[:, 1, 1].mean()), Q_FLOOR)
        r = 0.0 if fix_r_to_zero else m_step_r(Ex, Exx, np.asarray(counts, float), seq.u, n, ss.H)
        params = ModelParams(d=params.d, q_m=q_m, q_s=q_s, r=r, mu0=mu0, Sigma0=0.5 * (Sigma0 + Sigma0.T))
        rows.append((seq.total_loglik, q_m, q_s, r))
        if i > 0 and rows[-1][0] - rows[-2][0] < tol * abs(rows[-2][0]):
            return params, np.array(rows), True
    return params, np.array(rows), False
