"""Likelihood scoring of snapshots and threshold-based anomaly flags.

A snapshot's score is the sum of its blocks' Gaussian log-densities;
low scores mark anomalies.  Predictive mode scores each count against
the one-step-ahead belief (the count itself is held out), smoothed mode
against the all-data posterior; either way the blocks, a ``BlockStack``
with the ``ParamStack`` of their parameters, go through one batched
filter (and smoother) pass.  Policies: a z-score rule |z| > k
per block-step, or a log-likelihood floor c0 per graph-step.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import kalman
from .graph_model import BlockStack, TypePair
from .ssm import ParamStack


@dataclass(frozen=True)
class SigmaPolicy:
    """Flag block-steps with |z| above k; a graph-step is flagged when
    any of its blocks is."""

    k: float

    def __post_init__(self) -> None:
        if not self.k > 0:  # also refuses NaN
            raise ValueError(f"sigma threshold must be positive, got {self.k}")

    def describe(self) -> str:
        return f"sigma:{self.k:g}"


@dataclass(frozen=True)
class LogLikPolicy:
    """Flag graph-steps whose total score falls strictly below c0."""

    c0: float

    def __post_init__(self) -> None:
        # -inf (flag nothing) and +inf (flag every step) are valid floors
        if np.isnan(self.c0):
            raise ValueError("log-likelihood threshold must not be NaN")

    def describe(self) -> str:
        return f"loglik:{self.c0:g}"


@dataclass
class ScoreSeries:
    """Per-step scores for every block plus the per-step graph totals.

    Arrays are (blocks, T); ``graph_loglik`` is their column sum.  NaN
    marks steps with no observation.  ``non_gaussian_steps`` counts the
    block-steps whose predicted count lies outside the Gaussian regime.
    """

    pairs: tuple[TypePair, ...]
    mode: str
    w: np.ndarray
    pred_mean: np.ndarray
    pred_var: np.ndarray
    loglik: np.ndarray
    z: np.ndarray
    graph_loglik: np.ndarray
    non_gaussian_steps: int = 0

    @property
    def T(self) -> int:
        return int(self.w.shape[1])


@dataclass(frozen=True)
class FlaggedItem:
    t: int
    scope: str  # "graph" or "block"
    pair: TypePair | None
    score: float
    threshold: float
    ranked_blocks: tuple[tuple[TypePair, float], ...] | None = None


@dataclass
class AnomalyReport:
    policy: str
    flagged: tuple[FlaggedItem, ...]

    @property
    def graph_flags(self) -> tuple[FlaggedItem, ...]:
        return tuple(f for f in self.flagged if f.scope == "graph")

    @property
    def block_flags(self) -> tuple[FlaggedItem, ...]:
        return tuple(f for f in self.flagged if f.scope == "block")


def score(blocks: BlockStack, params: ParamStack, mode: str = "predictive") -> ScoreSeries:
    """Score every block-step of a stack in one batched pass; ``params``
    holds the blocks' parameters in row order.

    Both modes reuse the filter's per-step binomial noises; predictive
    mode reads the one-step-ahead moments, smoothed mode the full
    posterior ones.
    """
    if mode not in ("predictive", "smoothed"):
        raise ValueError(f"unknown scoring mode {mode!r}")
    ss = params.state_space(blocks.n)
    seq = kalman.filter(blocks, params)
    if mode == "predictive":
        means, covs = seq.pred_mean, seq.pred_cov
    else:
        seq = kalman.smooth(seq, ss)
        means, covs = seq.smoothed_mean[:, 1:], seq.smoothed_cov[:, 1:]
    w = blocks.counts
    mean = np.einsum("btj,bj->bt", means, ss.H)
    # the state's count variance plus the observation variance b_t = u_t + n^2 r
    var = np.einsum("bi,btij,bj->bt", ss.H, covs, ss.H) + (seq.u + ss.measurement_var[:, None])
    with np.errstate(invalid="ignore"):
        loglik = seq.pred_loglik if mode == "predictive" else kalman.gaussian_logpdf(w - mean, var)
        z = (w - mean) / np.sqrt(var)
    return ScoreSeries(
        pairs=blocks.pairs,
        mode=mode,
        w=w,
        pred_mean=mean,
        pred_var=var,
        loglik=loglik,
        z=z,
        graph_loglik=np.nansum(loglik, axis=0),
        non_gaussian_steps=int(seq.non_gaussian_steps.sum()),
    )


def _ranked_blocks(scores: ScoreSeries, t: int) -> tuple[tuple[TypePair, float], ...]:
    col = scores.loglik[:, t - 1]
    order = sorted(
        (i for i in range(len(scores.pairs)) if not np.isnan(col[i])),
        key=lambda i: (col[i], scores.pairs[i]),
    )
    return tuple((scores.pairs[i], float(col[i])) for i in order)


def detect(
    scores: ScoreSeries,
    policy: SigmaPolicy | LogLikPolicy,
    drill_down: bool = False,
) -> AnomalyReport:
    """Apply a threshold policy to scored data.

    With ``drill_down`` each graph-level flag carries the blocks ranked
    by ascending score (most anomalous first, ties broken by canonical
    block order).
    """
    flagged: list[FlaggedItem] = []
    for t in range(1, scores.T + 1):
        ranked = _ranked_blocks(scores, t) if drill_down else None
        if isinstance(policy, SigmaPolicy):
            z = scores.z[:, t - 1]
            hits = np.flatnonzero(np.abs(z) > policy.k)  # NaN (a gap) never hits
            if hits.size:
                worst = float(np.abs(z[hits]).max())
                flagged.append(FlaggedItem(t, "graph", None, worst, policy.k, ranked))
                flagged.extend(
                    FlaggedItem(t, "block", scores.pairs[i], float(z[i]), policy.k) for i in hits
                )
        elif scores.graph_loglik[t - 1] < policy.c0:
            g = float(scores.graph_loglik[t - 1])
            flagged.append(FlaggedItem(t, "graph", None, g, policy.c0, ranked))
    return AnomalyReport(policy=policy.describe(), flagged=tuple(flagged))


def _fmt(x: float) -> str:
    return "" if np.isnan(x) else repr(float(x))


def write_scores_csv(scores: ScoreSeries, report: AnomalyReport | None, path) -> None:
    """Write per-step scores; graph rows leave the block columns empty."""
    flagged_blocks = set()
    flagged_graphs = set()
    if report is not None:
        for item in report.flagged:
            if item.scope == "block":
                flagged_blocks.add((item.t, item.pair))
            else:
                flagged_graphs.add(item.t)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(
            ["t", "scope", "block_a", "block_b", "w", "pred_mean", "pred_var", "loglik", "z", "flagged"]
        )
        columns = (scores.w, scores.pred_mean, scores.pred_var, scores.loglik, scores.z)
        for t in range(1, scores.T + 1):
            for i, pair in enumerate(scores.pairs):
                values = (_fmt(c[i, t - 1]) for c in columns)
                out.writerow([t, "block", *pair, *values, int((t, pair) in flagged_blocks)])
            out.writerow(
                [t, "graph", "", "", "", "", "", _fmt(scores.graph_loglik[t - 1]), "", int(t in flagged_graphs)]
            )


def write_report_json(report: AnomalyReport, path) -> None:
    payload = {
        "policy": report.policy,
        "counts": {
            "graph": len(report.graph_flags),
            "block": len(report.block_flags),
        },
        "flagged": [
            {
                "t": item.t,
                "scope": item.scope,
                "block": list(item.pair) if item.pair is not None else None,
                "score": item.score,
                "threshold": item.threshold,
                "ranked_blocks": (
                    [[list(p), s] for p, s in item.ranked_blocks]
                    if item.ranked_blocks is not None
                    else None
                ),
            }
            for item in report.flagged
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
