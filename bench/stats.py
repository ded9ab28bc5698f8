"""Order statistics for repeated timings."""

from __future__ import annotations

import statistics


def summary(values) -> dict:
    """Median, the 90th percentile and the sample count behind them."""
    p90 = values[0] if len(values) == 1 else statistics.quantiles(
        values, n=10, method="inclusive")[8]
    return {"median": statistics.median(values), "p90": p90, "n": len(values)}
