"""Output checks and quality figures for one pipeline pass.

The checks hold for any correct implementation of the model, so they
survive algorithm changes: they test shapes, bounds and invariants, not
particular numbers.  Each check raises ``CheckFailure`` with a reason.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from pathlib import Path

# Relative slack for the period-aligned variance check; a real shrink is
# many orders of magnitude larger than float rounding of the mean.
VARIANCE_RTOL = 1e-9
COVERAGE_LEVEL = 0.95
# fit's default relative log-likelihood tolerance (the workloads keep it).
FIT_TOL = 1e-6


class CheckFailure(Exception):
    pass


def _rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_model(path, blocks: dict[str, int]) -> None:
    """The model reloads through ``load_model`` (which verifies its
    checksum) with one entry per non-empty block and matching n."""
    from sdsbm.ingest import load_model  # sdsbm is found only once src/ is on the path

    try:
        params, n_by_pair = load_model(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailure(f"model.json does not reload: {exc}") from None
    got = {f"{a}:{b}": n for (a, b), n in n_by_pair.items()}
    if got != blocks or len(params) != len(blocks):
        raise CheckFailure(f"model.json has blocks {sorted(got)}, expected {sorted(blocks)}")


def check_forecast(path, blocks, horizon: int, steps: int, period: int) -> None:
    """blocks x horizon finite rows with lower <= mean <= upper, and a
    variance that never shrinks at a fixed seasonal phase.

    The binomial term of the variance follows the seasonal forecast mean,
    so the variance may dip between phases; steps ``period`` apart share
    the same mean, and there the growing state variance must show.
    """
    rows = _rows(path)
    if len(rows) != len(blocks) * horizon:
        raise CheckFailure(f"forecast.csv has {len(rows)} rows, expected {len(blocks) * horizon}")
    variance = defaultdict(dict)
    for row in rows:
        try:
            t = int(row["t"])
            mean, var, lo, hi = (float(row[k]) for k in ("mean", "variance", "lower", "upper"))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckFailure(f"forecast.csv: unreadable row {row}: {exc}") from None
        if not all(math.isfinite(x) for x in (mean, var, lo, hi)):
            raise CheckFailure(f"forecast.csv: non-finite value at t={t} block={row['block']}")
        if not lo <= mean <= hi:
            raise CheckFailure(f"forecast.csv: bounds out of order at t={t} block={row['block']}")
        variance[row["block"]][t] = var
    if set(variance) != set(blocks):
        raise CheckFailure(f"forecast.csv blocks {sorted(variance)} != {sorted(blocks)}")
    for block, by_t in variance.items():
        if sorted(by_t) != list(range(steps + 1, steps + horizon + 1)):
            raise CheckFailure(f"forecast.csv: block {block} does not cover t={steps + 1}..{steps + horizon}")
        for t in range(steps + 1, steps + horizon + 1 - period):
            if by_t[t + period] < by_t[t] * (1.0 - VARIANCE_RTOL):
                raise CheckFailure(
                    f"forecast.csv: block {block} variance shrinks from t={t} to t={t + period}"
                )


def check_scores(path, steps: int, n_blocks: int) -> None:
    """One row per block and one graph row per step."""
    with open(path, newline="") as fh:
        n_rows = sum(1 for _ in csv.reader(fh)) - 1
    if n_rows != steps * (n_blocks + 1):
        raise CheckFailure(f"scores.csv has {n_rows} rows, expected {steps * (n_blocks + 1)}")


def fit_quality(trace_path, tol: float = FIT_TOL) -> tuple[float, float]:
    """(sum over blocks of the last log-likelihood, converged share).

    A block converged if its last two log-likelihoods pass ``em_fit``'s
    own stopping test, ``loglik - prev < tol * |prev|``; this holds also
    for a block that met it on the last iteration the cap allowed.
    """
    logliks = defaultdict(dict)
    for row in _rows(trace_path):
        logliks[row["block"]][int(row["iter"])] = float(row["loglik"])
    if not logliks:
        raise CheckFailure("em_trace.csv has no rows")
    last = []
    converged = 0
    for by_iter in logliks.values():
        ll = [by_iter[i] for i in sorted(by_iter)]
        last.append(ll[-1])
        converged += len(ll) >= 2 and ll[-1] - ll[-2] < tol * abs(ll[-2])
    return math.fsum(last), converged / len(logliks)


def forecast_quality(forecast_path, truth_path, steps: int) -> tuple[float, float]:
    """(|coverage of the held-out counts - 0.95|, mean absolute error)."""
    truth = {
        (int(r["t"]), r["block"]): float(r["w"]) for r in _rows(truth_path) if int(r["t"]) > steps
    }
    inside = 0
    abs_err = []
    for row in _rows(forecast_path):
        w = truth.get((int(row["t"]), row["block"]))
        if w is None:
            raise CheckFailure(f"no held-out count for t={row['t']} block={row['block']}")
        inside += float(row["lower"]) <= w <= float(row["upper"])
        abs_err.append(abs(w - float(row["mean"])))
    if not abs_err:
        raise CheckFailure("forecast.csv has no rows")
    return abs(inside / len(abs_err) - COVERAGE_LEVEL), math.fsum(abs_err) / len(abs_err)


def digest_outputs(pass_dir: Path) -> dict[str, str]:
    """SHA-256 of every output file of a pass, keyed by relative path."""
    return {
        str(p.relative_to(pass_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(pass_dir.rglob("*"))
        if p.is_file()
    }
