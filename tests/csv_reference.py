"""Reference CSV writers: the row-at-a-time formatting that the CSV
outputs had before they were written a chunk of rows at a time, kept as
it was written.  Each row goes through ``csv.writer``, and each float
through ``csv_float``, one at a time.  The chunked writers of
``sdsbm.cli`` and ``sdsbm.anomaly`` must give the same bytes.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from sdsbm.graph_model import pair_key


def csv_float(x) -> str:
    """A float as written in every CSV output: its shortest round-trip
    repr, or an empty field for NaN."""
    x = float(x)
    return "" if math.isnan(x) else repr(x)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` (read once) as UTF-8 CSV with "\\n" line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def write_em_trace(path, pairs, record) -> None:
    """``fit``'s em_trace.csv of the blocks ``pairs`` and their EM record:
    each block's rows whose log-likelihood is not NaN, block by block."""
    trace_rows = (
        [pair_key(pair), i, *map(csv_float, row)]
        for b, pair in enumerate(pairs)
        for i, row in enumerate(np.column_stack((record.loglik[:, b], record.variances[:, b])), 1)
        if not math.isnan(row[0])
    )
    write_csv(path, ["block", "iter", "loglik", "q_m", "q_s", "r"], trace_rows)


def write_forecast(path, pairs, seq, T, z) -> None:
    """``forecast``'s forecast.csv from the filter ``seq`` over T steps of
    data and the horizon's gaps, at Gaussian quantile z."""
    forecast = zip(pairs, seq.pred_count[:, T:], seq.innov_var[:, T:])
    rows = (
        [T + k + 1, pair_key(pair), *map(csv_float, (mean, var, mean - half, mean + half))]
        for pair, means, variances in forecast
        for k, (mean, var) in enumerate(zip(means, variances))
        for half in (z * math.sqrt(var),)
    )
    write_csv(path, ["t", "block", "mean", "variance", "lower", "upper"], rows)


def write_scores_csv(scores, report, path) -> None:
    """Write per-step scores and the report's flags; graph rows leave
    the block columns empty."""
    columns = (scores.w, scores.pred_mean, scores.pred_var, scores.loglik, scores.z)

    def rows():
        for t in range(1, scores.T + 1):
            for i, pair in enumerate(scores.pairs):
                values = (csv_float(c[i, t - 1]) for c in columns)
                yield [t, "block", *pair, *values, int(report.block_mask[i, t - 1])]
            graph = csv_float(scores.graph_loglik[t - 1])
            yield [t, "graph", "", "", "", "", "", graph, "", int(report.graph_mask[t - 1])]

    header = ["t", "scope", "block_a", "block_b", "w", "pred_mean", "pred_var", "loglik", "z",
              "flagged"]
    write_csv(path, header, rows())
