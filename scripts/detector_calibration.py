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
from dataclasses import replace

import numpy as np

from sdsbm import anomaly
from sdsbm.generator import generate_block_series, seasonal_state, sine_profile
from sdsbm.ssm import ParamStack


def null_blocks(truth, n, T, n_blocks, rng):
    """Blocks t0:t0, t1:t1, ... sampled as one stack from the one-row
    ``truth``, and the parameters they were sampled from."""
    params = truth.take([0] * n_blocks)
    pairs = [(f"t{i}", f"t{i}") for i in range(n_blocks)]
    blocks, _, _ = generate_block_series(params, n, T, rng, pairs)
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

    d = 7
    mu0 = seasonal_state(d, 0.5, sine_profile(d, 0.05))
    truth = ParamStack(d, [1e-7], [1e-7], [1e-4], [mu0], np.zeros((1, d, d)))  # a known state
    blocks, params = null_blocks(truth, args.n, args.steps, args.blocks, rng)
    scores = anomaly.score(blocks, params, mode="predictive")
    report = anomaly.detect(scores, anomaly.SigmaPolicy(args.k))
    steps = args.blocks * args.steps
    flags = int(report.block_mask.sum())
    rate = flags / steps
    tail = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(args.k / math.sqrt(2.0))))
    print(
        f"null calibration: {flags} flags over {steps} block-steps "
        f"(rate {rate:.5f}, Gaussian tail {tail:.5f}, ~1 in {1 / tail:.0f})"
    )

    d, T, t_star = 5, 30, 24
    truth = ParamStack(d, [1e-6], [1e-6], [1e-4], [seasonal_state(d, 0.5, np.zeros(d))], np.zeros((1, d, d)))
    hits = 0
    for _ in range(args.trials):
        trial_blocks, trial_params = null_blocks(truth, args.n, T, 3, rng)
        clean = anomaly.score(trial_blocks, trial_params)
        shift = args.shift_sigmas * math.sqrt(clean.pred_var[0, t_star - 1])
        spiked = trial_blocks.counts.copy()
        spiked[0, t_star - 1] = min(round(spiked[0, t_star - 1] + shift), args.n)
        trial_blocks = replace(trial_blocks, counts=spiked)
        rep = anomaly.detect(
            anomaly.score(trial_blocks, trial_params),
            anomaly.SigmaPolicy(args.k),
            drill_down=True,
        )
        if rep.graph_mask[t_star - 1] and rep.ranked_blocks[t_star][0][0] == ("t0", "t0"):
            hits += 1
    print(
        f"power: {args.shift_sigmas:g}-sigma one-step shift flagged and ranked first "
        f"in {hits}/{args.trials} trials"
    )


if __name__ == "__main__":
    main()
