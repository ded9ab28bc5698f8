#!/usr/bin/env python3
"""Effect of the measurement-variance term on forecast quality.

Generates one block with tiny process noise and a medium per-step
measurement variance, then fits it twice: once with r pinned to zero
(the classic dynamic block model) and once with r free.  The pinned fit
has to push the measurement variance into the process covariance, and
its forecast confidence bounds balloon with the horizon; the free fit
keeps them flat.  Writes per-horizon forecast CSVs next to a printed
summary.
"""

import argparse
import csv
import math
from pathlib import Path

import numpy as np

from sdsbm import kalman
from sdsbm.em import EmConfig, default_init, em_fit
from sdsbm.generator import GenParams, generate_block_series, seasonal_state, sine_profile

Z95 = 1.959964


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--period", type=int, default=7)
    ap.add_argument("--steps", type=int, default=280)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--q", type=float, default=1e-7, help="true q_m = q_s")
    ap.add_argument("--r", type=float, default=1e-3, help="true measurement variance")
    ap.add_argument("--horizon-periods", type=int, default=6)
    ap.add_argument("--max-iter", type=int, default=120)
    ap.add_argument("--out-dir", type=Path, default=Path("contrast_out"))
    args = ap.parse_args()

    d = args.period
    rng = np.random.default_rng(args.seed)
    gen = GenParams(
        d=d, q_m=args.q, q_s=args.q, r=args.r,
        init=seasonal_state(d, 0.7, sine_profile(d, 0.1)),
    )
    blocks, _ = generate_block_series(gen, n=args.n, T=args.steps, rng=rng)  # a stack of one
    init = default_init(blocks, d)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    horizon = args.horizon_periods * d
    print(f"true params: q_m = q_s = {args.q:g}, r = {args.r:g}  (n={args.n}, T={args.steps})")
    for label, fix_r in [("free", False), ("pinned", True)]:
        fitted, [trace] = em_fit(
            blocks, init, EmConfig(max_iter=args.max_iter, tol=1e-9, fix_r_to_zero=fix_r)
        )
        [params] = fitted
        seq = kalman.filter(blocks, fitted)
        fc = kalman.forecast(seq.final_mean, seq.final_cov, fitted.state_space(blocks.n), horizon)
        count_mean, total_var = fc.count_mean[0], fc.total_var[0]
        path = args.out_dir / f"forecast_{label}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["t", "mean", "variance", "lower", "upper"])
            for k in range(horizon):
                half = Z95 * math.sqrt(total_var[k])
                w.writerow(
                    [
                        blocks.T + k + 1,
                        count_mean[k],
                        total_var[k],
                        count_mean[k] - half,
                        count_mean[k] + half,
                    ]
                )
        hw = Z95 * math.sqrt(total_var[-1])
        print(
            f"{label:>6}: q_m={params.q_m:.3e} q_s={params.q_s:.3e} r={params.r:.3e} "
            f"({trace.iterations} EM iters) 95% half-width at {horizon} steps: {hw:.1f} "
            f"-> {path}"
        )


if __name__ == "__main__":
    main()
