"""Expectation-maximization for per-block noise parameters.

Learns phi = {r, q_m, q_s, mu0, Sigma0} for one block.  The E-step runs
the filter and smoother on the block's state space and collects the
smoothed first, second and lag-one moments (Shumway & Stoffer 1982),
the last from the smoother's lag-one covariances; the M-step updates the
initial belief in closed form, reads the process variances off the
expected transition-residual second moment, and maximizes the
measurement variance by a log-grid scan and bracketed Newton steps.
The per-step binomial noises u_t are frozen within each iteration,
mirroring their separate estimation from the prediction step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph_model import BlockSeries
from .kalman import BeliefSequence, run_filter, smooth
from .ssm import ModelParams, build_state_space

__all__ = [
    "ModelParams",
    "SufficientStats",
    "EmConfig",
    "EmTrace",
    "EmError",
    "e_step",
    "m_step_initial",
    "m_step_r",
    "m_step_q",
    "em_fit",
    "default_init",
    "r_objective",
]

# Smallest representable process variance; avoids exactly-singular
# covariances when an innovation collapses to zero.
Q_FLOOR = 1e-15

# A density variance cannot exceed 1/4, so r never needs to.
R_MAX = 0.25

class EmError(RuntimeError):
    """E-step failure; ``iteration`` is the 0-based EM iteration."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass
class SufficientStats:
    """Smoothed moments of the d-dimensional state.

    ``Ex[t]``/``Exx[t]`` cover t = 0..T; ``Exx_lag[i]`` holds the lag-one
    moment E[x_t x_{t-1}^T] = S_{t,t-1|T} + mu_{t|T} mu_{t-1|T}^T for t = i + 1,
    S_{t,t-1|T} being the smoothed lag-one covariance.
    """

    Ex: np.ndarray
    Exx: np.ndarray
    Exx_lag: np.ndarray

    @property
    def T(self) -> int:
        return int(self.Ex.shape[0]) - 1

    @property
    def dim(self) -> int:
        return int(self.Ex.shape[1])


@dataclass(frozen=True)
class EmConfig:
    max_iter: int = 200
    tol: float = 1e-6
    fix_r_to_zero: bool = False

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol >= 0:
            raise ValueError(f"tol must be non-negative, got {self.tol}")


@dataclass
class EmTrace:
    loglik_per_iter: list[float] = field(default_factory=list)
    params_per_iter: list[ModelParams] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


def e_step(
    series: BlockSeries, params: ModelParams
) -> tuple[SufficientStats, float, np.ndarray]:
    """Filter + smooth on the block's state space.

    Returns the smoothed sufficient statistics, the total predictive
    log-likelihood under ``params`` and the per-step binomial noises the
    filter used (to be held fixed through the following M-step).
    """
    ss = params.state_space(series.n)
    seq = smooth(run_filter(series.counts, ss, params.mu0, params.Sigma0), ss)
    return _stats_from_smoothed(seq), seq.total_loglik, seq.u.copy()


def _stats_from_smoothed(seq: BeliefSequence) -> SufficientStats:
    sm_mean = seq.smoothed_mean
    Exx = seq.smoothed_cov + np.einsum("ti,tj->tij", sm_mean, sm_mean)
    Exx_lag = seq.smoothed_lag_cov + np.einsum("ti,tj->tij", sm_mean[1:], sm_mean[:-1])
    return SufficientStats(Ex=sm_mean.copy(), Exx=Exx, Exx_lag=Exx_lag)


def m_step_initial(stats: SufficientStats) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form update of the initial belief from the smoothed t=0
    moments."""
    mu0 = stats.Ex[0].copy()
    Sigma0 = stats.Exx[0] - np.outer(mu0, mu0)
    return mu0, 0.5 * (Sigma0 + Sigma0.T)


def r_objective(
    r: float | np.ndarray, quad: np.ndarray, u: np.ndarray, n: int
) -> float | np.ndarray:
    """Expected observation log-likelihood as a function of r (constants
    dropped): sum_t [-ln(u_t + n^2 r)/2 - quad_t / (2 (u_t + n^2 r))].

    Vectorised over an array of r; a scalar r gives a float.  A value of
    r that leaves some u_t + n^2 r non-positive scores -inf.
    """
    v = u + n * n * np.asarray(r, dtype=float)[..., None]
    with np.errstate(all="ignore"):
        total = np.sum(-0.5 * np.log(v) - 0.5 * quad / v, axis=-1)
    total = np.where(np.all(v > 0, axis=-1), total, -math.inf)
    return float(total) if total.ndim == 0 else total


def m_step_r(
    stats: SufficientStats, series: BlockSeries, u_per_t: np.ndarray, n: int
) -> float:
    """Maximize the expected observation log-likelihood over r.

    Scans a 30-point log grid on [1e-12, 1] capped at ``R_MAX``, then
    runs safeguarded Newton on the analytic gradient inside the bracket
    of the best grid point's neighbours: a step that leaves the bracket,
    or a non-negative second derivative, becomes a geometric-mean
    bisection step.  The exact boundary r = 0 is kept as a candidate.
    """
    H = build_state_space(stats.dim, n, 0.0, 0.0, 0.0).H
    mask = series.observed_mask()
    w = series.counts[mask]
    Ex = stats.Ex[1:][mask]
    Exx = stats.Exx[1:][mask]
    u = np.asarray(u_per_t, dtype=float)[mask]
    if w.size == 0:
        return 0.0
    hx = Ex @ H
    hxxh = np.einsum("i,tij,j->t", H, Exx, H)
    quad = w * w - 2.0 * w * hx + hxxh

    # Clipping the grid at the cap keeps the scan and the bracket, and so
    # the result, inside [0, R_MAX].
    grid = np.minimum(np.geomspace(1e-12, 1.0, 30), R_MAX)
    best = int(np.argmax(r_objective(grid, quad, u, n)))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    r = float(grid[best])
    n2 = float(n) * n
    # The objective is flat to machine precision near its maximum, so the
    # solve follows the gradient's sign and root, never value comparisons.
    # Bisection alone reaches the 1e-14 step within about 50 iterations.
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
    if r_objective(0.0, quad, u, n) >= r_objective(r, quad, u, n):
        return 0.0
    return r


def m_step_q(stats: SufficientStats, d: int) -> tuple[float, float]:
    """Closed-form process-variance updates.

    q_m and q_s are the (0,0) and (1,1) entries of the expected
    transition-residual moment mean_t E[(x_t - G x_{t-1})(x_t - G x_{t-1})^T],
    built from the smoothed second and lag-one moments over t = 1..T and
    floored at a tiny positive value.
    """
    if stats.dim != d:
        raise ValueError("stats do not match a state of period d")
    if stats.T == 0:
        raise ValueError("cannot update process variances with no steps")
    G = build_state_space(d, 1, 0.0, 0.0, 0.0).G
    lag_G = stats.Exx_lag @ G.T
    resid = stats.Exx[1:] - lag_G - lag_G.transpose(0, 2, 1) + G @ stats.Exx[:-1] @ G.T
    q_m, q_s = resid[:, 0, 0].mean(), resid[:, 1, 1].mean()
    return max(float(q_m), Q_FLOOR), max(float(q_s), Q_FLOOR)


def em_fit(
    series: BlockSeries,
    init: ModelParams,
    config: EmConfig = EmConfig(),
) -> tuple[ModelParams, EmTrace]:
    """Alternate E and M steps until the log-likelihood stalls.

    Stops when the per-iteration improvement drops below
    ``tol * |loglik|`` or after ``max_iter`` iterations.  With
    ``fix_r_to_zero`` the measurement variance is pinned at zero,
    reproducing the model variant without that term.
    """
    if series.n < 1:
        raise ValueError("cannot fit a block with no possible edges")
    params = init
    if config.fix_r_to_zero and params.r != 0.0:
        params = ModelParams(
            d=params.d, q_m=params.q_m, q_s=params.q_s, r=0.0,
            mu0=params.mu0, Sigma0=params.Sigma0,
        )
    trace = EmTrace()
    for i in range(config.max_iter):
        try:
            stats, loglik, u_per_t = e_step(series, params)
        except Exception as exc:
            raise EmError(i, str(exc)) from exc
        mu0, Sigma0 = m_step_initial(stats)
        q_m, q_s = m_step_q(stats, params.d)
        r = 0.0 if config.fix_r_to_zero else m_step_r(stats, series, u_per_t, series.n)
        params = ModelParams(d=params.d, q_m=q_m, q_s=q_s, r=r, mu0=mu0, Sigma0=Sigma0)
        trace.loglik_per_iter.append(loglik)
        trace.params_per_iter.append(params)
        trace.iterations = i + 1
        if i > 0:
            prev = trace.loglik_per_iter[-2]
            if loglik - prev < config.tol * abs(prev):
                trace.converged = True
                break
    return params, trace


def default_init(series: BlockSeries, d: int, flat_defaults: bool = False) -> ModelParams:
    """Heuristic starting parameters for one block.

    Variances are scaled off the data (``var(w) / n^2 / T`` for the
    process terms, ``var(w) / n^2 / 10`` for the measurement term); the
    initial mean takes the first period's density as bias plus per-phase
    deviations.  ``flat_defaults`` switches the variances to the
    flat-1 convention instead.
    """
    if d < 2:
        raise ValueError("period d must be >= 2")
    if series.n < 1:
        raise ValueError("cannot initialise a block with no possible edges")
    n = series.n
    mask = series.observed_mask()
    w = series.counts[mask]
    y = w / n

    head = series.counts[:d] / n
    head_obs = head[~np.isnan(head)]
    bias = float(head_obs.mean()) if head_obs.size else 0.5
    dev = np.where(np.isnan(head), 0.0, head - bias)
    offsets = np.zeros(d - 1)
    # state holds (s_0, s_-1, ...); phase k of the first period estimates
    # the offset regenerated at steps t = k+1 mod d
    for j in range(d - 1):
        k = d - 1 - j
        if k < dev.shape[0]:
            offsets[j] = dev[k]
    mu0 = np.concatenate(([bias], offsets))

    if flat_defaults:
        q_m = q_s = r = 1.0
        Sigma0 = np.eye(d)
    else:
        var_w = float(y.var()) if y.size > 1 else 0.0
        T_obs = max(int(mask.sum()), 1)
        q_m = q_s = max(var_w / T_obs, Q_FLOOR)
        r = max(var_w / 10.0, 0.0)
        Sigma0 = 0.01 * np.eye(d)
    return ModelParams(d=d, q_m=q_m, q_s=q_s, r=r, mu0=mu0, Sigma0=Sigma0)
