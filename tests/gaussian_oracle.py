"""Brute-force joint-Gaussian reference for filter and smoother tests.

Builds the full joint distribution of (x_0, ..., x_T, w_1, ..., w_T)
for a linear-Gaussian model with fixed per-step observation variances,
then conditions it directly.  Everything here is deliberately naive
dense linear algebra, independent of the recursions under test, and so
is ``smoothed_projections``, which reads what the smoother returns off
full smoothed state moments.
"""

from __future__ import annotations

import numpy as np


def joint_moments(G, H, Q, mu0, Sigma0, b_seq):
    """Mean and covariance of the stacked vector (x_0..x_T, w_1..w_T).

    ``b_seq[t-1]`` is the total observation variance of w_t.
    """
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    Q = np.asarray(Q, dtype=float)
    b_seq = np.asarray(b_seq, dtype=float)
    T = b_seq.shape[0]
    D = G.shape[0]
    N = (T + 1) * D + T

    state_means = [np.asarray(mu0, dtype=float)]
    for _ in range(T):
        state_means.append(G @ state_means[-1])

    C = [[None] * (T + 1) for _ in range(T + 1)]
    C[0][0] = np.asarray(Sigma0, dtype=float)
    for t in range(1, T + 1):
        for j in range(t):
            C[t][j] = G @ C[t - 1][j]
            C[j][t] = C[t][j].T
        C[t][t] = G @ C[t - 1][t - 1] @ G.T + Q

    mean = np.zeros(N)
    cov = np.zeros((N, N))
    for t in range(T + 1):
        mean[t * D : (t + 1) * D] = state_means[t]
        for j in range(T + 1):
            cov[t * D : (t + 1) * D, j * D : (j + 1) * D] = C[t][j]
    base = (T + 1) * D
    for t in range(1, T + 1):
        it = base + t - 1
        mean[it] = H @ state_means[t]
        for j in range(T + 1):
            cov[it, j * D : (j + 1) * D] = H @ C[t][j]
            cov[j * D : (j + 1) * D, it] = cov[it, j * D : (j + 1) * D]
        for s in range(1, T + 1):
            cov[it, base + s - 1] = H @ C[t][s] @ H
        cov[it, it] += b_seq[t - 1]
    return mean, cov


def condition(mean, cov, obs_idx, values):
    """Posterior mean/cov of the remaining coordinates given exact
    observations of ``obs_idx``."""
    obs_idx = np.asarray(obs_idx, dtype=int)
    keep_idx = np.setdiff1d(np.arange(mean.shape[0]), obs_idx)
    S_oo = cov[np.ix_(obs_idx, obs_idx)]
    S_ko = cov[np.ix_(keep_idx, obs_idx)]
    S_kk = cov[np.ix_(keep_idx, keep_idx)]
    resid = np.asarray(values, dtype=float) - mean[obs_idx]
    gain = S_ko @ np.linalg.inv(S_oo)
    post_mean = mean[keep_idx] + gain @ resid
    post_cov = S_kk - gain @ S_ko.T
    return keep_idx, post_mean, 0.5 * (post_cov + post_cov.T)


def gaussian_logpdf(x, mean, cov):
    x = np.asarray(x, dtype=float)
    resid = x - mean
    sign, logdet = np.linalg.slogdet(2.0 * np.pi * cov)
    assert sign > 0
    return float(-0.5 * (logdet + resid @ np.linalg.solve(cov, resid)))


def smoothed_projections(mean, cov, lag_cov, counts, G, H):
    """One block's smoother outputs, projected out of its smoothed state
    moments: the means ``mean`` and covariances ``cov`` of x_0..x_T, the
    lag-one covariances ``lag_cov[t-1]`` = Cov(x_t, x_{t-1}) for
    t = 1..T, and the counts w_1..w_T (NaN at gaps)."""
    count = mean[1:] @ H
    count_var = np.einsum("i,tij,j->t", H, cov[1:], H)
    eta = mean[1:] - mean[:-1] @ G.T  # E[x_t - G x_{t-1}]
    lag_G = lag_cov @ G.T
    eta_cov = cov[1:] - lag_G - lag_G.swapaxes(1, 2) + G @ cov[:-1] @ G.T
    return {
        "smoothed_count": count,
        "smoothed_count_var": count_var,
        "quad": (counts - count) ** 2 + count_var,
        "eta_sq": eta[:, :2] ** 2 + eta_cov[:, (0, 1), (0, 1)],
        "x0_mean": mean[0],
        "x0_cov": cov[0],
    }


class OracleRun:
    """Filter/smoother marginals computed by direct conditioning."""

    def __init__(self, G, H, Q, mu0, Sigma0, counts, b_seq):
        counts = np.asarray(counts, dtype=float)
        self.T = counts.shape[0]
        self.D = np.asarray(G).shape[0]
        self.G, self.H, self.b_seq = (np.asarray(a, dtype=float) for a in (G, H, b_seq))
        self.counts = counts
        self.observed = np.flatnonzero(~np.isnan(counts))  # 0-based step indices
        self.mean, self.cov = joint_moments(G, H, Q, mu0, Sigma0, b_seq)
        self._base = (self.T + 1) * self.D
        self._joint = None

    def _state_slice(self, t):
        return slice(t * self.D, (t + 1) * self.D)

    def _given_first(self, t, k):
        """Posterior of x_t given the observed counts among w_1..w_k."""
        local = self.observed[self.observed < k]
        obs = self._base + local
        _, post_mean, post_cov = condition(self.mean, self.cov, obs, self.counts[local])
        # states keep their positions because observations sit at the tail
        sl = self._state_slice(t)
        return post_mean[sl], post_cov[sl, sl]

    def filtered(self, t):
        """Posterior of x_t given the observed counts among w_1..w_t."""
        return self._given_first(t, t)

    def predicted(self, t):
        """Posterior of x_t given the observed counts among w_1..w_{t-1}."""
        return self._given_first(t, t - 1)

    def filter_record(self):
        """The filter's per-step record for t = 1..T: the predicted count
        H a_t, ``PH`` p_t = P_t H^T and F_t = H p_t + b_t; and the belief
        after step T."""
        pred = [self.predicted(t) for t in range(1, self.T + 1)]
        PH = np.array([cov @ self.H for _, cov in pred]).reshape(self.T, self.D)
        final_mean, final_cov = self.filtered(self.T)
        return {
            "pred_count": np.array([self.H @ mean for mean, _ in pred]),
            "PH": PH,
            "innov_var": PH @ self.H + self.b_seq,
            "final_mean": final_mean,
            "final_cov": final_cov,
        }

    def _smoothed_joint(self):
        if self._joint is None:
            obs = self._base + self.observed
            self._joint = condition(self.mean, self.cov, obs, self.counts[self.observed])
        return self._joint

    def smoothed(self, t):
        """Posterior of x_t given all observed counts."""
        _, post_mean, post_cov = self._smoothed_joint()
        sl = self._state_slice(t)
        return post_mean[sl], post_cov[sl, sl]

    def smoothed_cross(self, t):
        """Posterior cross moment E[x_t x_{t-1}^T] given all observed counts."""
        _, post_mean, post_cov = self._smoothed_joint()
        sl_t = self._state_slice(t)
        sl_p = self._state_slice(t - 1)
        return post_cov[sl_t, sl_p] + np.outer(post_mean[sl_t], post_mean[sl_p])

    def smoothed_record(self):
        """What the smoother returns, projected out of the posterior of
        x_0..x_T given all observed counts."""
        _, post_mean, post_cov = self._smoothed_joint()
        sl = [self._state_slice(t) for t in range(self.T + 1)]
        mean = np.array([post_mean[s] for s in sl])
        cov = np.array([post_cov[s, s] for s in sl])
        lag_cov = np.array([post_cov[sl[t], sl[t - 1]] for t in range(1, self.T + 1)])
        lag_cov = lag_cov.reshape(self.T, self.D, self.D)
        return smoothed_projections(mean, cov, lag_cov, self.counts, self.G, self.H)

    def observations_logpdf(self):
        obs = self._base + self.observed
        return gaussian_logpdf(
            self.counts[self.observed], self.mean[obs], self.cov[np.ix_(obs, obs)]
        )
