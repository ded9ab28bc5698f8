"""Expectation-maximization for per-block noise parameters.

Learns phi = {r, q_m, q_s, mu0, Sigma0} for every block of a stack at
once, each step vectorised over the block axis.  The E-step runs the
batched filter and disturbance smoother (Durbin & Koopman §7.3.4), which
give each block's expected squared state and observation disturbances
and the moments of x_0 directly; the M-step takes the initial belief
from the latter, the process variances as the mean expected squared
state disturbances, and maximizes the measurement variance by a
log-grid scan and bracketed Newton steps, each block stopping once its
step falls below 1e-14 r.  The per-step binomial noises u_t are frozen
within each iteration, mirroring their separate estimation from the
prediction step.  Both the data-scaled starting point (``default_init``)
and the fit take a ``BlockStack`` and give one ``ParamStack``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kalman
from .graph_model import BlockStack, pair_key
from .ssm import ParamStack, check_period, initial_state

# Smallest representable process variance; avoids exactly-singular
# covariances when an innovation collapses to zero.
Q_FLOOR = 1e-15

# A density variance cannot exceed 1/4, so r never needs to.
R_MAX = 0.25

# The r-step scans as many grid points at a time as fill this many
# (point, block, step) cells, and at least one: a small stack scans the
# whole grid in one pass, and a large one holds a few arrays of B x T
# cells instead of 30 B x T.  At 2**14 cells (128 KiB a float array) the
# scan of 78 blocks over 28 steps ran fastest.
R_SCAN_CELLS = 2**14


class EmError(RuntimeError):
    """E-step failure; ``iteration`` is the 0-based EM iteration."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


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
    """One block's EM history, one row per iteration.

    ``loglik_per_iter`` is the log-likelihood under the parameters the
    iteration started from, ``variances_per_iter`` the (q_m, q_s, r) it
    produced.  ``non_gaussian_steps`` is the block's count of steps
    outside the Gaussian regime in its last E-step.
    """

    loglik_per_iter: np.ndarray
    variances_per_iter: np.ndarray
    converged: bool
    non_gaussian_steps: int

    @property
    def iterations(self) -> int:
        return len(self.loglik_per_iter)


def r_objective(r, quad: np.ndarray, u: np.ndarray, n):
    """Expected observation log-likelihood as a function of r (constants
    dropped): sum_t [-ln(u_t + n^2 r)/2 - quad_t / (2 (u_t + n^2 r))].

    Vectorised: r gains a trailing step axis that broadcasts against
    ``quad`` and ``u``, so an array of r gives one value per entry; a
    scalar r and one series give a float.  NaN terms (gaps) are
    skipped, and a value of r that leaves some u_t + n^2 r non-positive
    scores -inf.
    """
    v = u + n * n * np.asarray(r, dtype=float)[..., None]
    with np.errstate(all="ignore"):
        total = np.nansum(-0.5 * np.log(v) - 0.5 * quad / v, axis=-1)
    total = np.where(np.all(v > 0, axis=-1), total, -math.inf)
    return float(total) if total.ndim == 0 else total


def m_step_r(quad: np.ndarray, u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Maximize each block's expected observation log-likelihood over r,
    given its (B, T) expected squared observation disturbances ``quad``
    (NaN at gaps), binomial noises ``u`` and possible-edge counts ``n``.

    Scans a 30-point log grid on [1e-12, 1] capped at ``R_MAX``, as
    many points at a time as fill ``R_SCAN_CELLS`` (point, block, step)
    cells and at least one; each point's value, and so the best point,
    is what one scan of the whole grid gives.  Then it runs safeguarded
    Newton on the analytic gradient inside the bracket of the best grid
    point's neighbours: a step that leaves the bracket, or a
    non-negative second derivative, becomes a geometric-mean bisection
    step.  A block keeps its r once its Newton step is within
    1e-14 r, its bracket within 1e-14 of its top, or its gradient 0 or
    NaN.  The exact boundary r = 0 is kept as a candidate.  A block with
    no observed step gets r = 0.
    """
    n2 = n * n
    n = n[:, None]
    # Clipping the grid at the cap keeps the scan and the bracket, and so
    # the result, inside [0, R_MAX].
    grid = np.minimum(np.geomspace(1e-12, 1.0, 30), R_MAX)
    points = max(R_SCAN_CELLS // max(quad.size, 1), 1)
    scan = [r_objective(grid[k:k + points, None], quad, u, n) for k in range(0, grid.size, points)]
    best = np.argmax(np.concatenate(scan), axis=0)
    lo, hi = grid[np.maximum(best - 1, 0)], grid[np.minimum(best + 1, len(grid) - 1)]
    r = grid[best]
    # The objective is flat to machine precision near its maximum, so the
    # solve follows the gradient's sign and root, never value comparisons:
    # a Newton step below r's last bit stops the block, where bisection
    # would head back to a stale grid neighbour.  Bisection alone closes
    # the bracket within about 50 rounds.
    for _ in range(100):
        v = u + n2[:, None] * r[:, None]
        grad = 0.5 * n2 * np.nansum((quad - v) / v**2, axis=1)
        hess = 0.5 * n2 * n2 * np.nansum((v - 2.0 * quad) / v**3, axis=1)
        lo = np.where(grad > 0, r, lo)
        hi = np.where(grad < 0, r, hi)
        newton = r - np.divide(grad, hess, out=np.full_like(r, np.inf), where=hess < 0)
        stalled = ~((grad > 0) | (grad < 0)) | (np.abs(newton - r) <= 1e-14 * r)
        done = stalled | (hi - lo <= 1e-14 * hi)
        if done.all():
            break
        step = np.where((lo < newton) & (newton < hi), newton, np.sqrt(lo * hi))
        r = np.where(done, r, step)
    return np.where(r_objective(0.0, quad, u, n) >= r_objective(r, quad, u, n), 0.0, r)


def m_step_q(seq: kalman.BeliefSequence) -> np.ndarray:
    """Closed-form process-variance updates: each block's (B, 2)
    ``ParamStack.q`` is its expected squared state disturbances
    ``eta_sq`` averaged over t = 1..T, floored at a tiny positive value."""
    if seq.T == 0:
        raise ValueError("cannot update process variances with no steps")
    return np.maximum(seq.eta_sq.mean(axis=1), Q_FLOOR)


def em_fit(
    blocks: BlockStack,
    init: ParamStack,
    config: EmConfig = EmConfig(),
) -> tuple[ParamStack, list[EmTrace]]:
    """Alternate E and M steps until each block's log-likelihood stalls.

    The blocks advance in lockstep.  A block stops when its
    per-iteration improvement drops below ``tol * |loglik|`` or after
    ``max_iter`` iterations, and then leaves the active set, so its
    parameters and trace are those of fitting it alone.  With
    ``fix_r_to_zero`` the measurement variance is pinned at zero,
    reproducing the model variant without that term.  Returns the
    blocks' final parameters as one stack and each block's trace.  A
    block with no observed count has nothing to fit and is refused.
    """
    unobserved = np.isnan(blocks.counts).all(axis=1)
    if unobserved.any():
        pair = blocks.pairs[int(np.argmax(unobserved))]
        raise ValueError(f"block {pair_key(pair)} has no observed count to fit")
    params = replace(init, r=np.zeros(len(init))) if config.fix_r_to_zero else init
    B = len(blocks)
    active = np.arange(B)
    prev = np.full(B, np.nan)  # NaN fails every stopping test on the first iteration
    iterations = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    non_gaussian = np.zeros(B, dtype=int)
    history = []  # per iteration, (B, 4): loglik, q_m, q_s, r; NaN for stopped blocks
    for i in range(config.max_iter):
        sub = blocks.take(active)
        try:
            seq = kalman.smooth(kalman.filter(sub, params.take(active)))
        except Exception as exc:
            raise EmError(i, str(exc)) from exc
        q = m_step_q(seq)
        r = np.zeros(len(active)) if config.fix_r_to_zero else m_step_r(seq.quad, seq.u, sub.n)
        params = params.put(active, ParamStack(params.d, *q.T, r, seq.x0_mean, seq.x0_cov))
        loglik = seq.total_loglik
        row = np.full((B, 4), np.nan)
        row[active] = np.column_stack((loglik, q, r))
        history.append(row)
        iterations[active] += 1
        non_gaussian[active] = seq.non_gaussian_steps
        stop = loglik - prev[active] < config.tol * np.abs(prev[active])
        prev[active] = loglik
        converged[active[stop]] = True
        active = active[~stop]
        if active.size == 0:
            break
    history = np.array(history)
    return params, [
        EmTrace(history[:k, b, 0], history[:k, b, 1:], bool(converged[b]), int(non_gaussian[b]))
        for b, k in enumerate(iterations)
    ]


def default_init(blocks: BlockStack, d: int, flat_defaults: bool = False) -> ParamStack:
    """Heuristic starting parameters for every block of a stack.

    Variances are scaled off each block's observed densities y = w / n
    (``var(y) / T_obs`` for the process terms, ``var(y) / 10`` for the
    measurement term, T_obs being its number of observed steps); the
    initial mean takes the first period's density as bias plus per-phase
    deviations, gaps counting as no deviation (bias 0.5 when the whole
    first period is missing).  ``flat_defaults`` switches the variances
    to the flat-1 convention instead.
    """
    check_period(d)
    B = len(blocks)
    y = blocks.counts / blocks.n[:, None]
    head = y[:, :d]  # the first period's densities
    head_obs = np.count_nonzero(~np.isnan(head), axis=1)
    bias = np.where(head_obs > 0, np.nansum(head, axis=1) / np.maximum(head_obs, 1), 0.5)
    dev = np.zeros((B, d))  # no deviation at a gap or past the series end
    dev[:, : head.shape[1]] = np.where(np.isnan(head), 0.0, head - bias[:, None])
    # index k of the first period is step k + 1, so phase (k + 1) % d
    mu0 = initial_state(bias, np.roll(dev, 1, axis=1))

    if flat_defaults:
        q = r = np.ones(B)
        spread = 1.0
    else:
        T_obs = np.maximum(np.count_nonzero(~np.isnan(y), axis=1), 1)
        mean = np.nansum(y, axis=1) / T_obs
        var_y = np.nansum((y - mean[:, None]) ** 2, axis=1) / T_obs  # 0 with <= 1 observation
        q = np.maximum(var_y / T_obs, Q_FLOOR)
        r = var_y / 10.0
        spread = 0.01
    return ParamStack(d, q, q, r, mu0, np.broadcast_to(spread * np.eye(d), (B, d, d)))
