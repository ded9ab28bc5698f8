"""Likelihood scoring of snapshots and threshold-based anomaly flags.

A snapshot's score is the sum of its blocks' Gaussian log-densities;
low scores mark anomalies.  Predictive mode scores each count against
the one-step-ahead belief (the count itself is held out), smoothed mode
against the all-data posterior.  Policies: a z-score rule |z| > k per
block-step, or a log-likelihood floor c0 per graph-step.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import kalman
from .graph_model import BlockSeries, TypePair
from .ssm import ModelParams


@dataclass(frozen=True)
class SigmaPolicy:
    """Flag block-steps with |z| above k; a graph-step is flagged when
    any of its blocks is."""

    k: float

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


def threshold_sigma(k: float) -> SigmaPolicy:
    if not k > 0:
        raise ValueError(f"sigma threshold must be positive, got {k}")
    return SigmaPolicy(k=float(k))


@dataclass
class ScoreSeries:
    """Per-step scores for every block plus the per-step graph totals.

    Arrays are (blocks, T); ``graph_loglik`` is their column sum.  NaN
    marks steps with no observation.
    """

    pairs: tuple[TypePair, ...]
    mode: str
    w: np.ndarray
    pred_mean: np.ndarray
    pred_var: np.ndarray
    loglik: np.ndarray
    z: np.ndarray
    graph_loglik: np.ndarray

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


def score(
    blocks: Sequence[BlockSeries],
    params: Mapping[TypePair, ModelParams],
    mode: str = "predictive",
) -> ScoreSeries:
    """Score every block-step of a dynamic network.

    Blocks with no possible edges are skipped (they carry no
    information).  Both modes reuse the filter's per-step binomial
    noises; predictive mode reads the one-step-ahead moments, smoothed
    mode the full posterior ones.
    """
    if mode not in ("predictive", "smoothed"):
        raise ValueError(f"unknown scoring mode {mode!r}")
    active = [b for b in blocks if b.n >= 1]
    if not active:
        raise ValueError("no scorable blocks")
    T = active[0].T
    if any(b.T != T for b in active):
        raise ValueError("blocks disagree on series length")
    B = len(active)
    w = np.full((B, T), np.nan)
    pred_mean = np.full((B, T), np.nan)
    pred_var = np.full((B, T), np.nan)
    loglik = np.full((B, T), np.nan)
    for i, series in enumerate(active):
        if series.pair not in params:
            raise KeyError(f"no fitted parameters for block {series.pair}")
        p = params[series.pair]
        ss = p.state_space(series.n)
        seq = kalman.filter(series, p)
        if mode == "predictive":
            means, covs = seq.pred_mean, seq.pred_cov
            loglik[i] = seq.pred_loglik
        else:
            seq = kalman.smooth(seq, ss)
            means, covs = seq.smoothed_mean[1:], seq.smoothed_cov[1:]
        mean = means @ ss.H
        var = np.einsum("i,tij,j->t", ss.H, covs, ss.H) + seq.u + series.n * series.n * p.r
        if mode == "smoothed":
            mask = series.observed_mask()
            with np.errstate(invalid="ignore"):
                loglik[i, mask] = kalman.gaussian_logpdf(
                    series.counts[mask] - mean[mask], var[mask]
                )
        w[i] = series.counts
        pred_mean[i] = mean
        pred_var[i] = var
    with np.errstate(invalid="ignore"):
        z = (w - pred_mean) / np.sqrt(pred_var)
    graph = np.nansum(loglik, axis=0)
    return ScoreSeries(
        pairs=tuple(b.pair for b in active),
        mode=mode,
        w=w,
        pred_mean=pred_mean,
        pred_var=pred_var,
        loglik=loglik,
        z=z,
        graph_loglik=graph,
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
            zcol = scores.z[:, t - 1]
            hits = [
                i
                for i in range(len(scores.pairs))
                if not np.isnan(zcol[i]) and abs(zcol[i]) > policy.k
            ]
            if hits:
                worst = max(abs(zcol[i]) for i in hits)
                flagged.append(
                    FlaggedItem(
                        t=t,
                        scope="graph",
                        pair=None,
                        score=float(worst),
                        threshold=policy.k,
                        ranked_blocks=ranked,
                    )
                )
                for i in hits:
                    flagged.append(
                        FlaggedItem(
                            t=t,
                            scope="block",
                            pair=scores.pairs[i],
                            score=float(zcol[i]),
                            threshold=policy.k,
                        )
                    )
        else:
            g = scores.graph_loglik[t - 1]
            if g < policy.c0:
                flagged.append(
                    FlaggedItem(
                        t=t,
                        scope="graph",
                        pair=None,
                        score=float(g),
                        threshold=policy.c0,
                        ranked_blocks=ranked,
                    )
                )
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
        for t in range(1, scores.T + 1):
            for i, pair in enumerate(scores.pairs):
                out.writerow(
                    [
                        t,
                        "block",
                        pair[0],
                        pair[1],
                        _fmt(scores.w[i, t - 1]),
                        _fmt(scores.pred_mean[i, t - 1]),
                        _fmt(scores.pred_var[i, t - 1]),
                        _fmt(scores.loglik[i, t - 1]),
                        _fmt(scores.z[i, t - 1]),
                        int((t, pair) in flagged_blocks),
                    ]
                )
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
