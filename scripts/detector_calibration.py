#!/usr/bin/env python3
"""Calibration and power of the three-sigma anomaly detector.

Part one scores model-generated null data with the true parameters and
compares the block-step flag rate against the two-sided Gaussian tail
(about 1 in 370 at k = 3).  Part two injects a one-step density shift of
a chosen size into one block and reports how often the step is flagged
at graph level with the shifted block ranked first.
"""

import argparse
import math

import numpy as np

from sdsbm import anomaly
from sdsbm.generator import GenParams, default_state, generate_block_series, seasonal_state, sine_profile
from sdsbm.graph_model import BlockSeries
from sdsbm.ssm import ModelParams


def null_blocks(rng, d, n, T, n_blocks):
    blocks, params = [], {}
    for i in range(n_blocks):
        pair = (f"t{i}", f"t{i}")
        gen = GenParams(
            d=d, q_m=1e-7, q_s=1e-7, r=1e-4,
            init=seasonal_state(d, 0.5, sine_profile(d, 0.05)),
        )
        series, _ = generate_block_series(gen, n=n, T=T, rng=rng, pair=pair)
        blocks.append(series)
        params[pair] = ModelParams(
            d=d, q_m=gen.q_m, q_s=gen.q_s, r=gen.r,
            mu0=gen.init, Sigma0=np.zeros((d, d)),
        )
    return blocks, params


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--k", type=float, default=3.0)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--steps", type=int, default=20_000)
    ap.add_argument("--blocks", type=int, default=5)
    ap.add_argument("--shift-sigmas", type=float, default=6.0)
    ap.add_argument("--trials", type=int, default=200)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)

    blocks, params = null_blocks(rng, d=7, n=args.n, T=args.steps, n_blocks=args.blocks)
    scores = anomaly.score(blocks, params, mode="predictive")
    report = anomaly.detect(scores, anomaly.threshold_sigma(args.k))
    steps = args.blocks * args.steps
    rate = len(report.block_flags) / steps
    tail = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(args.k / math.sqrt(2.0))))
    print(
        f"null calibration: {len(report.block_flags)} flags over {steps} block-steps "
        f"(rate {rate:.5f}, Gaussian tail {tail:.5f}, ~1 in {1 / tail:.0f})"
    )

    d, T, t_star = 5, 30, 24
    hits = 0
    for _ in range(args.trials):
        trial_blocks, trial_params = [], {}
        for i in range(3):
            pair = (f"t{i}", f"t{i}")
            gen = GenParams(d=d, q_m=1e-6, q_s=1e-6, r=1e-4, init=default_state(d, 0.5))
            series, _ = generate_block_series(gen, n=args.n, T=T, rng=rng, pair=pair)
            trial_blocks.append(series)
            trial_params[pair] = ModelParams(
                d=d, q_m=gen.q_m, q_s=gen.q_s, r=gen.r,
                mu0=gen.init, Sigma0=np.zeros((d, d)),
            )
        clean = anomaly.score(trial_blocks, trial_params)
        shift = args.shift_sigmas * math.sqrt(clean.pred_var[0, t_star - 1])
        spiked = trial_blocks[0].counts.copy()
        spiked[t_star - 1] = min(round(spiked[t_star - 1] + shift), args.n)
        trial_blocks[0] = BlockSeries(pair=trial_blocks[0].pair, n=args.n, counts=spiked)
        rep = anomaly.detect(
            anomaly.score(trial_blocks, trial_params),
            anomaly.threshold_sigma(args.k),
            drill_down=True,
        )
        grabbed = [f for f in rep.graph_flags if f.t == t_star]
        if grabbed and grabbed[0].ranked_blocks[0][0] == ("t0", "t0"):
            hits += 1
    print(
        f"power: {args.shift_sigmas:g}-sigma one-step shift flagged and ranked first "
        f"in {hits}/{args.trials} trials"
    )


if __name__ == "__main__":
    main()
