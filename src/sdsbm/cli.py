"""Command-line front end: simulate, fit, forecast, detect.

Every subcommand is reproducible from its inputs, options and seed; the
resolved configuration is written next to the outputs.  Exit codes:
0 success (detect: no anomalies), 1 usage error, 2 data error,
3 anomalies found (detect), 4 EM hit max-iter without converging (fit).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from . import anomaly
from .em import EmConfig, EmError, default_init, em_fit
from .generator import GenParams, generate_network, seasonal_state, sine_profile
from .graph_model import BlockStack, VertexTyping, extract_block_series, pair_key
from .ingest import (
    BucketingConfig,
    EMPTY_GRAPH,
    IngestError,
    MISSING_OBSERVATION,
    ModelFormatError,
    bucketize,
    load_model,
    parse_inputs,
    save_model,
)
from .kalman import FilterError, filter as kalman_filter, forecast as kalman_forecast
from .ssm import NORMAL_APPROX_MIN_COUNT, ParamStack

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ANOMALIES = 3
EXIT_MAX_ITER = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise UsageError(f"{self.prog}: {message}")


def _fmt(x) -> str:
    return repr(float(x))


def _warn_non_gaussian(steps: int) -> None:
    """One stderr line for the block-steps outside the Gaussian regime."""
    if steps:
        print(f"warning: {steps} block-steps have a predicted count within "
              f"{NORMAL_APPROX_MIN_COUNT:g} of 0 or n, where the Gaussian count "
              "approximation is dubious", file=sys.stderr)


def _z_quantile(level: float) -> float:
    """Two-sided Gaussian quantile for a central confidence level."""
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    return statistics.NormalDist().inv_cdf(0.5 * (1.0 + level))


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return cfg


# The options that take a JSON boolean, an integer or a number in a
# config file; every other option takes a string, except simulate's
# "blocks" object.
FLAG_OPTIONS = {"fix_r_zero", "paper_default_init", "drill_down"}
INTEGER_OPTIONS = {"seed", "period", "steps", "t_cap", "max_iter", "horizon"}
NUMBER_OPTIONS = {
    "bias", "season_amplitude", "q_m", "q_s", "r", "width", "origin", "tol", "level",
    "sigma", "loglik_threshold",
}


def _check_config_value(key: str, value, default) -> None:
    """A config value must have its option's JSON type; null only where
    the option's default is null."""
    if key == "blocks" or (value is None and default is None):
        return
    if key in FLAG_OPTIONS:
        ok, kind = isinstance(value, bool), "true or false"
    elif key in INTEGER_OPTIONS:
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif key in NUMBER_OPTIONS:
        ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise UsageError(f"config key {key!r} takes {kind}, got {json.dumps(value)}")


def _resolve(defaults: dict, config: dict, cli: dict) -> dict:
    unknown = set(config) - set(defaults)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        _check_config_value(key, value, defaults[key])
    resolved = dict(defaults)
    resolved.update(config)
    resolved.update({k: v for k, v in cli.items() if v is not None})
    return resolved


def _write_run_config(out_dir: Path, command: str, resolved: dict) -> None:
    payload = {"command": command, **resolved}
    with open(out_dir / "run_config.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(resolved: dict) -> Path:
    out = Path(resolved["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_type_sizes(spec: str) -> dict[str, int]:
    sizes: dict[str, int] = {}
    for part in spec.split(","):
        if "=" not in part:
            raise UsageError(f"bad type spec {part!r}, expected name=count")
        name, count = part.split("=", 1)
        name = name.strip()
        if name in sizes:
            raise UsageError(f"type {name!r} given twice")
        try:
            sizes[name] = int(count)
        except ValueError:
            raise UsageError(f"bad vertex count {count!r} for type {name!r}") from None
        if not name or sizes[name] < 1:
            raise UsageError(f"type {name!r} needs a positive vertex count")
    return sizes


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "seed": 0,
    "period": 7,
    "steps": 280,
    "types": "a=32,b=16",
    "bias": 0.6,
    "season_amplitude": 0.1,
    "q_m": 1e-7,
    "q_s": 1e-7,
    "r": 1e-3,
    "width": 1.0,
    "blocks": {},
    "out_dir": ".",
}

# Options a config's "blocks" entry may set for one block, keyed "a:b".
BLOCK_OPTIONS = ("bias", "season_amplitude", "q_m", "q_s", "r")


def _block_overrides(blocks, typing: VertexTyping) -> dict:
    if not isinstance(blocks, dict):
        raise UsageError("config key 'blocks' must map block names like 'a:b' to objects")
    pairs = {pair_key(pair) for pair in typing.pairs()}
    for key, opts in blocks.items():
        if key not in pairs:
            raise UsageError(f"config blocks: unknown block {key!r}, expected one of {sorted(pairs)}")
        if not isinstance(opts, dict) or set(opts) - set(BLOCK_OPTIONS):
            raise UsageError(f"config blocks: {key!r} takes an object with keys among "
                             f"{list(BLOCK_OPTIONS)}, got {opts!r}")
    return blocks


def cmd_simulate(resolved: dict) -> int:
    d = resolved["period"]
    T = resolved["steps"]
    if T < 0:
        raise ValueError("steps must be >= 0")
    width = float(resolved["width"])
    if not (math.isfinite(width) and width > 0):
        raise ValueError("width must be finite and positive")
    sizes = _parse_type_sizes(resolved["types"])
    vertex_ids: list[str] = []
    type_of: dict[str, str] = {}
    for name in sorted(sizes):
        for i in range(sizes[name]):
            vid = f"{name}{i}"
            vertex_ids.append(vid)
            type_of[vid] = name
    typing = VertexTyping(vertex_ids=tuple(vertex_ids), type_of=type_of)

    overrides = _block_overrides(resolved["blocks"], typing)
    block_params = {}
    for pair in typing.pairs():
        opts = {k: resolved[k] for k in BLOCK_OPTIONS}
        opts.update(overrides.get(pair_key(pair), {}))
        init = seasonal_state(d, opts["bias"], sine_profile(d, opts["season_amplitude"]))
        block_params[pair] = GenParams(
            d=d, q_m=opts["q_m"], q_s=opts["q_s"], r=opts["r"], init=init
        )

    rng = np.random.default_rng(resolved["seed"])
    network, traces = generate_network(block_params, typing, T, rng)

    out = _out_dir(resolved)
    stamps = np.array([_fmt((t - 0.5) * width) for t in range(1, T + 1)], dtype=object)
    ids = np.array(typing.vertex_ids, dtype=object)
    with open(out / "events.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["timestamp", "src", "dst"])
        w.writerows(
            zip(stamps[network.edge_t - 1], ids[network.edge_u], ids[network.edge_v])
        )
    with open(out / "types.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["vertex", "type"])
        for v in typing.vertex_ids:
            w.writerow([v, typing.type_of[v]])
    with open(out / "ground_truth.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "block", "m", "s", "e", "w"])
        for t in range(1, T + 1):
            for pair in typing.pairs():
                if pair not in traces:
                    continue
                tr = traces[pair]
                latents = (tr.states[t - 1, 0], tr.states[t - 1, 1], tr.density[t - 1])
                w.writerow([t, pair_key(pair), *map(_fmt, latents), int(tr.counts[t - 1])])
    _write_run_config(out, "simulate", resolved)
    return EXIT_OK


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------

# Options of every command that reads events: fit, forecast and detect.
DATA_DEFAULTS = {
    "seed": 0,
    "events": None,
    "types": None,
    "origin": 0.0,
    "width": 1.0,
    "t_cap": None,
    "missing_policy": EMPTY_GRAPH,
    "out_dir": ".",
}

FIT_DEFAULTS = {
    **DATA_DEFAULTS,
    "period": 7,
    "max_iter": 200,
    "tol": 1e-6,
    "fix_r_zero": False,
    "paper_default_init": False,
    "init_model": None,
}


def _load_blocks(resolved: dict) -> BlockStack:
    if not resolved["events"] or not resolved["types"]:
        raise UsageError("--events and --types are required")
    events, typing = parse_inputs(resolved["events"], resolved["types"])
    config = BucketingConfig(
        origin=float(resolved["origin"]),
        width=float(resolved["width"]),
        T=resolved["t_cap"],
        missing_policy=resolved["missing_policy"],
    )
    network = bucketize(events, typing, config)
    if network.T == 0:
        cause = "the bucket cap (--t-cap) is 0" if config.T == 0 else "the event file is empty"
        raise IngestError(f"no time buckets: {cause}")
    return extract_block_series(network)


def cmd_fit(resolved: dict) -> int:
    d = resolved["period"]
    blocks = _load_blocks(resolved)
    if not len(blocks):
        raise IngestError("no blocks with possible edges to fit")
    em_config = EmConfig(
        max_iter=resolved["max_iter"],
        tol=float(resolved["tol"]),
        fix_r_to_zero=resolved["fix_r_zero"],
    )
    init = default_init(blocks, d, flat_defaults=resolved["paper_default_init"])
    if resolved["init_model"]:
        warm_start = load_model(resolved["init_model"])[0]
        warm = [k for k, pair in enumerate(blocks.pairs) if pair in warm_start]
        if warm:
            rows = ParamStack.of([warm_start[blocks.pairs[k]] for k in warm])
            if rows.d != d:
                raise IngestError(f"init model period {rows.d} does not match --period {d}")
            init = init.put(warm, rows)
    fitted, traces = em_fit(blocks, init, em_config)
    out = _out_dir(resolved)
    n_by_pair = dict(zip(blocks.pairs, blocks.n))
    save_model(dict(zip(blocks.pairs, fitted)), n_by_pair, out / "model.json")
    with open(out / "em_trace.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["block", "iter", "loglik", "q_m", "q_s", "r"])
        for pair, trace in zip(blocks.pairs, traces):
            rows = np.column_stack((trace.loglik_per_iter, trace.variances_per_iter))
            for i, row in enumerate(rows, start=1):
                w.writerow([pair_key(pair), i, *map(_fmt, row)])
    _write_run_config(out, "fit", resolved)
    _warn_non_gaussian(sum(t.non_gaussian_steps for t in traces))
    capped = [pair_key(pair) for pair, t in zip(blocks.pairs, traces) if not t.converged]
    if capped:
        print(f"warning: EM stopped at --max-iter {em_config.max_iter} before converging "
              f"in {len(capped)} of {len(traces)} blocks: {', '.join(capped)}", file=sys.stderr)
        return EXIT_MAX_ITER
    return EXIT_OK


# ----------------------------------------------------------------------
# forecast
# ----------------------------------------------------------------------

FORECAST_DEFAULTS = {**DATA_DEFAULTS, "period": None, "model": None, "horizon": None, "level": 0.95}


def _matched_blocks(resolved: dict) -> tuple[BlockStack, ParamStack]:
    """The data's blocks and the model's parameters, both in model order."""
    if not resolved["model"]:
        raise UsageError("--model is required")
    params, n_by_pair = load_model(resolved["model"])
    model_d = next(iter(params.values())).d
    if resolved.get("period") is not None and resolved["period"] != model_d:
        raise IngestError(
            f"--period {resolved['period']} contradicts the model's period {model_d}"
        )
    blocks = _load_blocks(resolved)
    row = {pair: k for k, pair in enumerate(blocks.pairs)}
    pairs = sorted(params)
    for pair in pairs:
        if pair not in row or blocks.n[row[pair]] != n_by_pair[pair]:
            raise IngestError(
                f"typing mismatch: model block {pair_key(pair)} (n={n_by_pair[pair]}) "
                "does not match the data"
            )
    return blocks.take([row[pair] for pair in pairs]), ParamStack.of([params[p] for p in pairs])


def cmd_forecast(resolved: dict) -> int:
    if resolved["horizon"] is None:
        raise UsageError("--horizon is required")
    horizon = resolved["horizon"]
    if horizon < 1:
        raise UsageError("forecast horizon must be >= 1")
    z = _z_quantile(float(resolved["level"]))
    blocks, params = _matched_blocks(resolved)
    seq = kalman_filter(blocks, params)
    fc = kalman_forecast(
        seq.filt_mean[:, -1], seq.filt_cov[:, -1], params.state_space(blocks.n), horizon
    )
    out = _out_dir(resolved)
    with open(out / "forecast.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "block", "mean", "variance", "lower", "upper"])
        for pair, means, variances in zip(blocks.pairs, fc.count_mean, fc.total_var):
            for k, (mean, var) in enumerate(zip(means, variances)):
                half = z * math.sqrt(var)
                bounds = (mean, var, mean - half, mean + half)
                w.writerow([blocks.T + k + 1, pair_key(pair), *map(_fmt, bounds)])
    _write_run_config(out, "forecast", resolved)
    _warn_non_gaussian(int(seq.non_gaussian_steps.sum() + fc.non_gaussian_steps.sum()))
    return EXIT_OK


# ----------------------------------------------------------------------
# detect
# ----------------------------------------------------------------------

DETECT_DEFAULTS = {
    **DATA_DEFAULTS,
    "period": None,
    "model": None,
    "sigma": None,
    "loglik_threshold": None,
    "mode": "predictive",
    "drill_down": False,
}


def cmd_detect(resolved: dict) -> int:
    if resolved["sigma"] is not None and resolved["loglik_threshold"] is not None:
        raise UsageError("--sigma and --loglik-threshold are mutually exclusive")
    if resolved["loglik_threshold"] is not None:
        policy = anomaly.LogLikPolicy(c0=float(resolved["loglik_threshold"]))
    else:
        policy = anomaly.threshold_sigma(
            3.0 if resolved["sigma"] is None else float(resolved["sigma"])
        )
    blocks, params = _matched_blocks(resolved)
    scores = anomaly.score(blocks, params, mode=resolved["mode"])
    report = anomaly.detect(scores, policy, drill_down=resolved["drill_down"])
    out = _out_dir(resolved)
    anomaly.write_scores_csv(scores, report, out / "scores.csv")
    anomaly.write_report_json(report, out / "report.json")
    _write_run_config(out, "detect", resolved)
    _warn_non_gaussian(scores.non_gaussian_steps)
    return EXIT_ANOMALIES if report.graph_flags else EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_shared(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, help="run seed, recorded in the output")
    sub.add_argument("--period", "-d", type=int, help="seasonal period length d")
    sub.add_argument("--config", help="JSON file with defaults for any option")
    sub.add_argument("--out-dir", help="directory for output files")


def _add_data_opts(sub: argparse.ArgumentParser, with_model: bool) -> None:
    if with_model:
        sub.add_argument("--model", help="fitted model JSON")
    sub.add_argument("--events", help="events CSV (timestamp,src,dst)")
    sub.add_argument("--types", help="vertex types CSV (vertex,type)")
    sub.add_argument("--origin", type=float, help="bucketing origin timestamp")
    sub.add_argument("--width", type=float, help="bucket width")
    sub.add_argument("--t-cap", type=int, help="cap on the number of buckets")
    sub.add_argument(
        "--missing-policy",
        choices=[EMPTY_GRAPH, MISSING_OBSERVATION],
        help="treat event-free buckets as empty graphs or as gaps",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="sdsbm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="sample a synthetic seasonal network")
    _add_shared(sim)
    sim.add_argument("--steps", "-T", type=int, help="number of snapshots")
    sim.add_argument("--types", help="type sizes, e.g. a=32,b=16")
    sim.add_argument("--bias", type=float, help="initial edge-density bias")
    sim.add_argument("--season-amplitude", type=float, help="seasonal half-range")
    sim.add_argument("--q-m", type=float, help="bias process variance")
    sim.add_argument("--q-s", type=float, help="seasonal process variance")
    sim.add_argument("--r", type=float, help="measurement variance")
    sim.add_argument("--width", type=float, help="timestamp width per snapshot")

    fit = subs.add_parser("fit", help="learn per-block parameters by EM")
    _add_shared(fit)
    _add_data_opts(fit, with_model=False)
    fit.add_argument("--max-iter", type=int, help="EM iteration cap")
    fit.add_argument("--tol", type=float, help="relative log-likelihood tolerance")
    fit.add_argument("--fix-r-zero", action="store_const", const=True, help="pin measurement variance to zero")
    fit.add_argument(
        "--paper-default-init",
        action="store_const",
        const=True,
        help="initialise all variances at the flat value 1",
    )
    fit.add_argument("--init-model", help="warm-start EM from a saved model file")

    fc = subs.add_parser("forecast", help="forecast counts beyond the data")
    _add_shared(fc)
    _add_data_opts(fc, with_model=True)
    fc.add_argument("--horizon", type=int, help="steps to forecast")
    fc.add_argument("--level", type=float, help="confidence level, e.g. 0.95")

    det = subs.add_parser("detect", help="flag anomalous snapshots")
    _add_shared(det)
    _add_data_opts(det, with_model=True)
    det.add_argument("--sigma", type=float, help="z-score threshold k")
    det.add_argument("--loglik-threshold", type=float, help="graph log-likelihood floor c0")
    det.add_argument("--mode", choices=["predictive", "smoothed"], help="scoring moments")
    det.add_argument("--drill-down", action="store_const", const=True, help="rank blocks under each graph flag")
    return parser


_COMMANDS = {
    "simulate": (SIMULATE_DEFAULTS, cmd_simulate),
    "fit": (FIT_DEFAULTS, cmd_fit),
    "forecast": (FORECAST_DEFAULTS, cmd_forecast),
    "detect": (DETECT_DEFAULTS, cmd_detect),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = vars(parser.parse_args(argv))
        command = args.pop("command")
        config = _load_config(args.pop("config", None))
        defaults, runner = _COMMANDS[command]
        resolved = _resolve(defaults, config, args)
        return runner(resolved)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        IngestError, ModelFormatError, EmError, FilterError, ValueError, OSError, KeyError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # e.g. a bucket width far too fine for the time span
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
