"""Likelihood scoring of snapshots and threshold-based anomaly flags.

A snapshot's score is the sum of its blocks' Gaussian log-densities;
low scores mark anomalies.  Predictive mode scores each count against
the one-step-ahead belief (the count itself is held out), smoothed mode
against the all-data posterior; either way the blocks, a ``BlockStack``
with the ``ParamStack`` of their parameters, go through one batched
filter (and disturbance smoother) pass that gives each count's mean and
variance directly.  Policies: a z-score rule |z| > k per block-step, or
a log-likelihood floor c0 per graph-step; each returns flag masks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import kalman
from .graph_model import BlockStack, TypePair
from .ingest import write_json
from .ssm import ParamStack


@dataclass(frozen=True)
class SigmaPolicy:
    """Flag block-steps with |z| above k; a graph-step is flagged when
    any of its blocks is, and judged by its largest |z|."""

    k: float

    def __post_init__(self) -> None:
        if not self.k > 0:  # also refuses NaN
            raise ValueError(f"sigma threshold must be positive, got {self.k}")

    def describe(self) -> str:
        return f"sigma:{self.k:g}"

    @property
    def threshold(self) -> float:
        return self.k

    def flags(self, scores: ScoreSeries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block flags, graph flags and each step's largest |z|."""
        abs_z = np.abs(scores.z)
        block = abs_z > self.k
        return block, block.any(axis=0), np.fmax.reduce(abs_z, axis=0, initial=np.nan)


@dataclass(frozen=True)
class LogLikPolicy:
    """Flag graph-steps whose total score falls strictly below c0."""

    c0: float

    def __post_init__(self) -> None:
        # -inf (flag nothing) and +inf (flag every observed step) are valid floors
        if np.isnan(self.c0):
            raise ValueError("log-likelihood threshold must not be NaN")

    def describe(self) -> str:
        return f"loglik:{self.c0:g}"

    @property
    def threshold(self) -> float:
        return self.c0

    def flags(self, scores: ScoreSeries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """No block flags; graph flags and the graph log-likelihood."""
        g = scores.graph_loglik
        return np.zeros(scores.z.shape, dtype=bool), g < self.c0, g


@dataclass
class ScoreSeries:
    """Per-step scores for every block plus the per-step graph totals.

    Arrays are (blocks, T); ``graph_loglik`` is their column sum.  NaN
    marks steps with no observation (a graph-step with no observed
    block).  ``non_gaussian_steps`` counts the block-steps whose
    predicted count lies outside the Gaussian regime.
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


@dataclass
class AnomalyReport:
    """The (B, T) block and (T,) graph flag masks (a block flag implies
    its step's graph flag), the score each graph-step is judged by, and
    with drill-down the ranked blocks of each flagged step t."""

    policy: str
    threshold: float
    block_mask: np.ndarray
    graph_mask: np.ndarray
    graph_score: np.ndarray
    ranked_blocks: dict[int, tuple[tuple[TypePair, float], ...]] | None = None

    @property
    def graph_flags(self) -> np.ndarray:
        """The flagged graph-steps t, 1-based."""
        return np.flatnonzero(self.graph_mask) + 1


def score(blocks: BlockStack, params: ParamStack, mode: str = "predictive") -> ScoreSeries:
    """Score every block-step of a stack in one batched pass; ``params``
    holds the blocks' parameters in row order.

    Both modes reuse the filter's per-step binomial noises; predictive
    mode reads the count's one-step-ahead mean H a_t and variance F_t,
    smoothed mode its mean and variance given the whole series.
    """
    if mode not in ("predictive", "smoothed"):
        raise ValueError(f"unknown scoring mode {mode!r}")
    seq = kalman.filter(blocks, params)
    w = blocks.counts
    if mode == "predictive":
        mean, var = seq.pred_count, seq.innov_var
    else:
        seq = kalman.smooth(seq)
        mean = seq.smoothed_count
        # the state's count variance plus the observation variance b_t = u_t + n^2 r
        var = seq.smoothed_count_var + (seq.u + seq.ss.measurement_var[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        loglik = kalman.gaussian_logpdf(w - mean, var)
        z = (w - mean) / np.sqrt(var)
    return ScoreSeries(
        pairs=blocks.pairs,
        mode=mode,
        w=w,
        pred_mean=mean,
        pred_var=var,
        loglik=loglik,
        z=z,
        graph_loglik=np.where(np.isnan(w).all(axis=0), np.nan, np.nansum(loglik, axis=0)),
        non_gaussian_steps=int(seq.non_gaussian_steps.sum()),
    )


def _ranked_blocks(scores: ScoreSeries, t: int) -> tuple[tuple[TypePair, float], ...]:
    col = scores.loglik[:, t - 1]
    order = sorted(np.flatnonzero(~np.isnan(col)), key=lambda i: (col[i], scores.pairs[i]))
    return tuple((scores.pairs[i], float(col[i])) for i in order)


def detect(
    scores: ScoreSeries,
    policy: SigmaPolicy | LogLikPolicy,
    drill_down: bool = False,
) -> AnomalyReport:
    """Apply a threshold policy to scored data.

    With ``drill_down`` each flagged graph-step carries the blocks
    ranked by ascending score (most anomalous first, ties broken by
    canonical block order).
    """
    block_mask, graph_mask, graph_score = policy.flags(scores)
    report = AnomalyReport(policy.describe(), policy.threshold, block_mask, graph_mask, graph_score)
    if drill_down:
        report.ranked_blocks = {int(t): _ranked_blocks(scores, t) for t in report.graph_flags}
    return report


def _fmt(x: float) -> str:
    return "" if np.isnan(x) else repr(float(x))


def write_scores_csv(scores: ScoreSeries, report: AnomalyReport, path) -> None:
    """Write per-step scores and the report's flags; graph rows leave
    the block columns empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(
            ["t", "scope", "block_a", "block_b", "w", "pred_mean", "pred_var", "loglik", "z", "flagged"]
        )
        columns = (scores.w, scores.pred_mean, scores.pred_var, scores.loglik, scores.z)
        for t in range(1, scores.T + 1):
            for i, pair in enumerate(scores.pairs):
                values = (_fmt(c[i, t - 1]) for c in columns)
                out.writerow([t, "block", *pair, *values, int(report.block_mask[i, t - 1])])
            out.writerow(
                [t, "graph", "", "", "", "", "", _fmt(scores.graph_loglik[t - 1]), "", int(report.graph_mask[t - 1])]
            )


def write_report_json(scores: ScoreSeries, report: AnomalyReport, path) -> None:
    """Write each flagged graph-step with its score, then its flagged
    blocks with their z."""
    flagged = []
    for t in map(int, report.graph_flags):
        ranked = None if report.ranked_blocks is None else report.ranked_blocks[t]
        flagged.append((t, None, report.graph_score[t - 1], ranked))
        hits = np.flatnonzero(report.block_mask[:, t - 1])
        flagged.extend((t, scores.pairs[i], scores.z[i, t - 1], None) for i in hits)
    payload = {
        "policy": report.policy,
        "counts": {"graph": int(report.graph_mask.sum()), "block": int(report.block_mask.sum())},
        "flagged": [
            {
                "t": t,
                "scope": "graph" if pair is None else "block",
                "block": None if pair is None else list(pair),
                "score": float(value),
                "threshold": report.threshold,
                "ranked_blocks": None if ranked is None else [[list(p), s] for p, s in ranked],
            }
            for t, pair, value, ranked in flagged
        ],
    }
    write_json(payload, path)
