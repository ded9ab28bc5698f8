"""The benchmark's workloads: one seeded simulate -> fit -> forecast ->
detect pipeline each, shaped so that a different cost dominates.

Why each workload exists, and which end-to-end metric each per-layer
metric should move on it, is recorded in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

PERIOD = 7
# The last HORIZON simulated steps are held out and score the forecast.
HORIZON = 21

EXPECTED_EXITS = {
    "simulate": {0},
    "fit": {0, 4},
    "forecast": {0},
    "detect": {0, 3},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    types: str
    steps: int  # T: buckets given to fit, forecast and detect
    max_iter: int  # fit's EM iteration cap
    detect_opts: tuple[str, ...]

    def type_sizes(self) -> dict[str, int]:
        return {name: int(k) for name, k in (part.split("=") for part in self.types.split(","))}

    def blocks(self) -> dict[str, int]:
        """Possible-edge count n per non-empty block, keyed ``a:b``."""
        sizes = self.type_sizes()
        names = sorted(sizes)
        out = {}
        for i, a in enumerate(names):
            for b in names[i:]:
                n = comb(sizes[a], 2) if a == b else sizes[a] * sizes[b]
                if n >= 1:
                    out[f"{a}:{b}"] = n
        return out

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        """CLI argument lists, relative to the pass directory."""
        data = ["--events", "sim/events.csv", "--types", "sim/types.csv", "--t-cap", str(self.steps)]
        return [
            (
                "simulate",
                ["simulate", "--seed", str(seed), "--period", str(PERIOD),
                 "--steps", str(self.steps + HORIZON), "--types", self.types, "--out-dir", "sim"],
            ),
            (
                "fit",
                ["fit", *data, "--period", str(PERIOD),
                 "--max-iter", str(self.max_iter), "--out-dir", "fit"],
            ),
            (
                "forecast",
                ["forecast", "--model", "fit/model.json", *data,
                 "--horizon", str(HORIZON), "--out-dir", "fc"],
            ),
            (
                "detect",
                ["detect", "--model", "fit/model.json", *data, *self.detect_opts, "--out-dir", "det"],
            ),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="readme",
            why="README scenario (a=32,b=16) at T=140: EM iterations on 3 blocks dominate fit",
            types="a=32,b=16",
            steps=140,
            max_iter=30,
            detect_opts=("--sigma", "3", "--drill-down"),
        ),
        Workload(
            name="many-blocks",
            why="12 types x 8 vertices, 78 small blocks: per-block, per-step Python overhead",
            types=",".join(f"{chr(ord('a') + i)}=8" for i in range(12)),
            steps=28,
            max_iter=5,
            detect_opts=("--sigma", "3", "--mode", "smoothed"),
        ),
    )
}
