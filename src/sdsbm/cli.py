"""Command-line front end: simulate, fit, forecast, detect.

Every subcommand is reproducible from its inputs and options (simulate's
include its seed); the resolved configuration is written next to the
outputs.  ``simulate`` writes ``events.csv`` one snapshot at a time, as
the generator yields them, and keeps only each block's ground truth.
``forecast`` filters the data with the horizon appended as gaps; it and
``detect`` need the data's blocks to be the model's.
Exit codes:
0 success (detect: no anomalies), 1 usage error, 2 data error,
3 anomalies found (detect), 4 EM hit max-iter without converging (fit).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from . import anomaly
from .em import EmConfig, EmError, default_init, em_fit
from .generator import generate_network, seasonal_state, sine_profile
from .graph_model import (CHUNK_ROWS, BlockStack, VertexTyping, decode_keys,
                          extract_block_series, pair_key)
from .ingest import (
    BucketingConfig,
    IngestError,
    csv_column,
    csv_field,
    csv_lines,
    load_model,
    parse_inputs,
    read_text,
    save_model,
    write_csv,
    write_json,
)
from .kalman import FilterError, filter as kalman_filter
from .ssm import DRIVEN, NORMAL_APPROX_MIN_COUNT, ParamStack, check_period

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ANOMALIES = 3
EXIT_MAX_ITER = 4

# --missing-policy: an event-free bucket is an observed empty graph, or a gap
EMPTY_GRAPH = "empty-graph"
MISSING_OBSERVATION = "missing-observation"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise UsageError(f"{self.prog}: {message}")


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
    import statistics  # only forecast needs it, and it loads decimal and fractions

    return statistics.NormalDist().inv_cdf(0.5 * (1.0 + level))


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(read_text(path, UsageError))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return cfg


@dataclass(frozen=True)
class Option:
    """One option of a command, declared once for its flag and its config
    key.  ``kind`` is the type of its value (bool for a flag, dict for a
    config-only object); the flag is ``--`` plus the key with dashes."""

    kind: type
    default: object
    help: str
    choices: tuple = ()
    short: str | None = None


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", dict: "an object"}


def _config_value(name: str, option: Option, value):
    """A config value as its option's type, if it has the option's JSON
    type, lies among its choices and is null only where the default is."""
    if value is None and option.default is None:
        return None
    json_kind = (int, float) if option.kind is float else option.kind
    if (isinstance(value, json_kind) and (option.kind is bool or not isinstance(value, bool))
            and (not option.choices or value in option.choices)):
        try:
            return option.kind(value)
        except OverflowError:  # an integer beyond the range of a float
            pass
    kind = f"one of {list(option.choices)}" if option.choices else _KIND_NAMES[option.kind]
    raise UsageError(f"config {name} takes {kind}, got {json.dumps(value)}")


def _resolve(options: dict[str, Option], config: dict, cli: dict) -> dict:
    unknown = set(config) - set(options)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    resolved = {key: option.default for key, option in options.items()}
    resolved.update(
        {key: _config_value(f"key {key!r}", options[key], value) for key, value in config.items()}
    )
    resolved.update({k: v for k, v in cli.items() if v is not None})
    return resolved


# Every option of every command.  The data options are shared by fit,
# forecast and detect; forecast and detect take the period d from the model.
OUT_DIR = {"out_dir": Option(str, ".", "directory for output files")}
DATA_OPTIONS = {
    "events": Option(str, None, "events CSV (timestamp,src,dst)"),
    "types": Option(str, None, "vertex types CSV (vertex,type)"),
    "origin": Option(float, 0.0, "bucketing origin timestamp"),
    "width": Option(float, 1.0, "bucket width"),
    "t_cap": Option(int, None, "cap on the number of buckets"),
    "missing_policy": Option(str, EMPTY_GRAPH, "treat event-free buckets as empty graphs or as gaps",
                             choices=(EMPTY_GRAPH, MISSING_OBSERVATION)),
    **OUT_DIR,
}
PERIOD = {"period": Option(int, 7, "seasonal period length d", short="-d")}
MODEL = {"model": Option(str, None, "fitted model JSON")}

# The options a simulate config's "blocks" entry may set for one block,
# keyed "a:b".
BLOCK_OPTIONS = ("bias", "season_amplitude", "q_m", "q_s", "r")

OPTIONS = {
    "simulate": {
        "seed": Option(int, 0, "random seed, recorded in the output"),
        **PERIOD,
        "steps": Option(int, 280, "number of snapshots", short="-T"),
        "types": Option(str, "a=32,b=16", "type sizes, e.g. a=32,b=16"),
        "bias": Option(float, 0.6, "initial edge-density bias"),
        "season_amplitude": Option(float, 0.1, "seasonal half-range"),
        "q_m": Option(float, 1e-7, "bias process variance"),
        "q_s": Option(float, 1e-7, "seasonal process variance"),
        "r": Option(float, 1e-3, "measurement variance"),
        "width": Option(float, 1.0, "timestamp width per snapshot"),
        "blocks": Option(dict, {}, "per-block generator options, keyed a:b (config only)"),
        **OUT_DIR,
    },
    "fit": {
        **DATA_OPTIONS,
        **PERIOD,
        "max_iter": Option(int, EmConfig.max_iter, "EM iteration cap"),
        "tol": Option(float, EmConfig.tol, "relative log-likelihood tolerance"),
        "fix_r_zero": Option(bool, False, "pin measurement variance to zero"),
        "paper_default_init": Option(bool, False, "initialise all variances at the flat value 1"),
        "init_model": Option(str, None, "warm-start EM from a saved model file"),
    },
    "forecast": {
        **MODEL,
        **DATA_OPTIONS,
        "horizon": Option(int, None, "steps to forecast"),
        "level": Option(float, 0.95, "confidence level, e.g. 0.95"),
    },
    "detect": {
        **MODEL,
        **DATA_OPTIONS,
        "sigma": Option(float, None, "z-score threshold k"),
        "loglik_threshold": Option(float, None, "graph log-likelihood floor c0"),
        "mode": Option(str, "predictive", "scoring moments", choices=("predictive", "smoothed")),
        "drill_down": Option(bool, False, "rank blocks under each graph flag"),
    },
}


def _write_run_config(out_dir: Path, command: str, resolved: dict) -> None:
    write_json({"command": command, **resolved}, out_dir / "run_config.json")


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
        if not name:
            raise UsageError(f"bad type spec {part!r}: the type name is empty")
        if name in sizes:
            raise UsageError(f"type {name!r} given twice")
        try:
            sizes[name] = int(count)
        except ValueError:
            raise UsageError(f"bad vertex count {count!r} for type {name!r}") from None
        if sizes[name] < 1:
            raise UsageError(f"type {name!r} needs a positive vertex count")
    return sizes


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _block_overrides(blocks: dict, typing: VertexTyping) -> dict:
    """The config's per-block overrides, each keyed by one of the typing's
    blocks and each value checked against its option."""
    names = [pair_key(pair) for pair in typing.blocks()[0]]
    checked = {}
    for key, opts in blocks.items():
        if key not in names:
            raise UsageError(f"config blocks: {key!r} is not a type pair with possible edges, "
                             f"expected one of {names}")
        if not isinstance(opts, dict) or set(opts) - set(BLOCK_OPTIONS):
            raise UsageError(f"config blocks: {key!r} takes an object with keys among "
                             f"{list(BLOCK_OPTIONS)}, got {opts!r}")
        checked[key] = {
            name: _config_value(f"blocks {key!r} key {name!r}", OPTIONS["simulate"][name], value)
            for name, value in opts.items()
        }
    return checked


def _utf8_text(name: str, value: str) -> str:
    """A command-line string as UTF-8 text: under a locale that is not
    UTF-8, its non-ASCII bytes arrive as surrogate escapes."""
    try:
        return value.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError:
        raise UsageError(f"{name} is not UTF-8 text") from None


def _block_labels(pairs) -> np.ndarray:
    """Each block's ``a:b`` label as a CSV field, in an object array."""
    return np.array([csv_field(pair_key(pair)) for pair in pairs], dtype=object)


def cmd_simulate(resolved: dict) -> int:
    resolved = {**resolved, "types": _utf8_text("--types", resolved["types"])}
    d = resolved["period"]
    check_period(d)  # checked here too, for a typing with no block
    T = resolved["steps"]
    if T < 0:
        raise ValueError("steps must be >= 0")
    width = resolved["width"]
    if not (math.isfinite(width) and width > 0):
        raise ValueError("width must be finite and positive")
    sizes = _parse_type_sizes(resolved["types"])
    type_of: dict[str, str] = {}
    for name in sorted(sizes):
        for i in range(sizes[name]):
            vid = f"{name}{i}"
            if vid in type_of:
                raise UsageError(f"types {type_of[vid]!r} and {name!r} both name vertex {vid!r}")
            type_of[vid] = name
    typing = VertexTyping(type_of)

    overrides = _block_overrides(resolved["blocks"], typing)
    rows = [{**{k: resolved[k] for k in BLOCK_OPTIONS}, **overrides.get(pair_key(pair), {})}
            for pair in typing.blocks()[0]]
    mu0 = [seasonal_state(d, o["bias"], sine_profile(d, o["season_amplitude"])) for o in rows]
    params = ParamStack(d, *([o[k] for o in rows] for k in ("q_m", "q_s", "r")),
                        np.reshape(mu0, (len(rows), d)), np.zeros((len(rows), d, d)))

    rng = np.random.default_rng(resolved["seed"])
    snapshots = generate_network(params, typing, T, rng)
    steps = T if len(params) else 0  # with no block every snapshot is empty, so none is walked
    try:
        truth = np.empty((steps, len(params), 4))  # each step's m, s, e and w of each block
    except (ValueError, MemoryError):  # numpy's "array is too big", or a refused allocation
        raise ValueError(f"--steps {T} is too many: the ground truth, {T} x {len(params)} x 4 "
                         "floats, cannot be held in memory") from None
    # step t is stamped at its bucket's midpoint, which fit must read back into bucket t
    step_t = np.arange(1, steps + 1)
    with np.errstate(over="ignore"):
        stamps = (step_t - 0.5) * width
        misplaced = ~np.isfinite(stamps) | (BucketingConfig(0.0, width).bucket(stamps) != step_t)
    if misplaced.any():
        t = int(np.argmax(misplaced)) + 1
        raise ValueError(f"--width {width!r} stamps step {t} at {float(stamps[t - 1])!r}, which "
                         f"fit's buckets from origin 0 at that width do not place in bucket {t}")

    out = _out_dir(resolved)
    labels = [csv_field(v) for v in typing.vertex_ids]
    types = [csv_field(label) for label in typing.type_of.values()]
    dst_fields = np.array([f"{label}\n" for label in labels], dtype=object)  # a row's end
    V = len(labels)

    def event_lines():
        """Each snapshot's events.csv lines, at most CHUNK_ROWS rows to a
        string, as it arrives; its ground truth is kept."""
        for t, snapshot in enumerate(islice(snapshots, steps), 1):
            truth[t - 1] = np.column_stack(
                (snapshot.states[:, DRIVEN], snapshot.density, snapshot.counts)
            )
            [stamp] = csv_column(stamps[t - 1:t])
            starts = np.array([f"{stamp},{label}," for label in labels], dtype=object)
            for lo in range(0, snapshot.keys.size, CHUNK_ROWS):
                _, u, v = decode_keys(snapshot.keys[lo:lo + CHUNK_ROWS], V)
                cells = np.empty((u.size, 2), dtype=object)
                cells[:, 0], cells[:, 1] = starts[u], dst_fields[v]
                yield "".join(cells.ravel().tolist())

    write_csv(out / "events.csv", ["timestamp", "src", "dst"], event_lines())
    write_csv(out / "types.csv", ["vertex", "type"],
              csv_lines([np.array(fields, dtype=object) for fields in (labels, types)]))
    blocks = _block_labels(typing.blocks()[0])
    block_steps = truth.reshape(-1, 4)  # t-major, blocks in canonical order

    def truth_lines():
        for lo in range(0, len(block_steps), CHUNK_ROWS):
            t, b = np.divmod(np.arange(lo, min(lo + CHUNK_ROWS, len(block_steps))), len(blocks))
            m, s, e, w = block_steps[lo:lo + CHUNK_ROWS].T
            yield from csv_lines([t + 1, blocks[b], m, s, e, w.astype(np.int64)])

    write_csv(out / "ground_truth.csv", ["t", "block", "m", "s", "e", "w"], truth_lines())
    _write_run_config(out, "simulate", resolved)
    return EXIT_OK


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------

def _load_blocks(resolved: dict) -> BlockStack:
    if not resolved["events"] or not resolved["types"]:
        raise UsageError("--events and --types are required")
    config = BucketingConfig(origin=resolved["origin"], width=resolved["width"], T=resolved["t_cap"])
    network = parse_inputs(resolved["events"], resolved["types"], config)
    if network.T == 0:
        cause = "the bucket cap (--t-cap) is 0" if config.T == 0 else "the event file is empty"
        raise IngestError(f"no time buckets: {cause}")
    blocks = extract_block_series(network)
    if resolved["missing_policy"] == MISSING_OBSERVATION:
        # a bucket with no event is exactly a step whose block counts are all 0
        blocks.counts[:, ~blocks.counts.any(axis=0)] = np.nan
    return blocks


def cmd_fit(resolved: dict) -> int:
    d = resolved["period"]
    blocks = _load_blocks(resolved)
    if not len(blocks):
        raise IngestError("no blocks with possible edges to fit")
    if (blocks.counts == 0).any() and not (blocks.counts > 0).any():  # all gaps: em_fit refuses
        raise IngestError("no edge to fit: every observed count of every block is 0")
    em_config = EmConfig(
        max_iter=resolved["max_iter"],
        tol=resolved["tol"],
        fix_r_to_zero=resolved["fix_r_zero"],
    )
    init = default_init(blocks, d, flat_defaults=resolved["paper_default_init"])
    if resolved["init_model"]:
        warm_start, warm_n = load_model(resolved["init_model"])
        if warm_start.d != d:
            raise IngestError(f"init model period {warm_start.d} does not match --period {d}")
        row = {pair: i for i, pair in enumerate(warm_n)}  # each model block's row
        warm = [k for k, pair in enumerate(blocks.pairs) if pair in row]
        if not warm:
            raise IngestError("init model shares no block with the data")
        init = init.put(warm, warm_start.take([row[blocks.pairs[k]] for k in warm]))
    fitted, traces = em_fit(blocks, init, em_config)
    out = _out_dir(resolved)
    n_by_pair = dict(zip(blocks.pairs, blocks.n))
    save_model(dict(zip(blocks.pairs, fitted)), n_by_pair, out / "model.json")
    iterations = [trace.iterations for trace in traces]
    values = np.concatenate(
        [np.column_stack((trace.loglik_per_iter, trace.variances_per_iter)) for trace in traces]
    )
    trace_table = [np.repeat(_block_labels(blocks.pairs), iterations),
                   np.concatenate([np.arange(1, k + 1) for k in iterations]), *values.T]
    write_csv(out / "em_trace.csv", ["block", "iter", "loglik", "q_m", "q_s", "r"],
              csv_lines(trace_table))
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

def _matched_blocks(resolved: dict) -> tuple[BlockStack, ParamStack]:
    """The data's blocks and the model's parameters for them; the data
    must have the model's blocks, no more, with the same n.  Both are
    then the same blocks in canonical (sorted type-pair) order."""
    if not resolved["model"]:
        raise UsageError("--model is required")
    params, n_by_pair = load_model(resolved["model"])
    blocks = _load_blocks(resolved)
    extra = [pair for pair in blocks.pairs if pair not in n_by_pair]
    if extra:
        raise IngestError(f"typing mismatch: data block {pair_key(extra[0])} is not in the model")
    n = dict(zip(blocks.pairs, blocks.n))
    for pair, model_n in n_by_pair.items():
        if n.get(pair) != model_n:
            raise IngestError(
                f"typing mismatch: model block {pair_key(pair)} (n={model_n}) "
                "does not match the data"
            )
    return blocks, params


def cmd_forecast(resolved: dict) -> int:
    if resolved["horizon"] is None:
        raise UsageError("--horizon is required")
    horizon = resolved["horizon"]
    if horizon < 1:
        raise UsageError("forecast horizon must be >= 1")
    z = _z_quantile(resolved["level"])
    blocks, params = _matched_blocks(resolved)
    T = blocks.T
    # the filter over appended gaps: its count mean and variance there are the forecast
    seq = kalman_filter(blocks.with_gaps(horizon), params)
    mean, var = seq.pred_count[:, T:].ravel(), seq.innov_var[:, T:].ravel()
    half = z * np.sqrt(var)
    out = _out_dir(resolved)
    table = [np.tile(np.arange(T + 1, T + horizon + 1), len(blocks)),
             np.repeat(_block_labels(blocks.pairs), horizon), mean, var, mean - half, mean + half]
    write_csv(out / "forecast.csv", ["t", "block", "mean", "variance", "lower", "upper"],
              csv_lines(table))
    _write_run_config(out, "forecast", resolved)
    _warn_non_gaussian(int(seq.non_gaussian_steps.sum()))
    return EXIT_OK


# ----------------------------------------------------------------------
# detect
# ----------------------------------------------------------------------

def cmd_detect(resolved: dict) -> int:
    if resolved["sigma"] is not None and resolved["loglik_threshold"] is not None:
        raise UsageError("--sigma and --loglik-threshold are mutually exclusive")
    if resolved["loglik_threshold"] is not None:
        policy = anomaly.LogLikPolicy(c0=resolved["loglik_threshold"])
    else:
        policy = anomaly.SigmaPolicy(3.0 if resolved["sigma"] is None else resolved["sigma"])
    blocks, params = _matched_blocks(resolved)
    scores = anomaly.score(blocks, params, mode=resolved["mode"])
    report = anomaly.detect(scores, policy, drill_down=resolved["drill_down"])
    out = _out_dir(resolved)
    anomaly.write_scores_csv(scores, report, out / "scores.csv")
    anomaly.write_report_json(scores, report, out / "report.json")
    _write_run_config(out, "detect", resolved)
    _warn_non_gaussian(scores.non_gaussian_steps)
    return EXIT_ANOMALIES if report.graph_mask.any() else EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


_COMMANDS = {
    "simulate": (cmd_simulate, "sample a synthetic seasonal network"),
    "fit": (cmd_fit, "learn per-block parameters by EM"),
    "forecast": (cmd_forecast, "forecast counts beyond the data"),
    "detect": (cmd_detect, "flag anomalous snapshots"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="sdsbm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        sub.add_argument("--config", help="JSON file with defaults for any option")
        for key, option in OPTIONS[command].items():
            if option.kind is dict:  # config only
                continue
            flags = [f"--{key.replace('_', '-')}", *filter(None, [option.short])]
            if option.kind is bool:
                sub.add_argument(*flags, action="store_const", const=True, help=option.help)
            else:
                sub.add_argument(*flags, type=option.kind, choices=option.choices or None,
                                 help=option.help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = vars(parser.parse_args(argv))
        command = args.pop("command")
        config = _load_config(args.pop("config"))
        return _COMMANDS[command][0](_resolve(OPTIONS[command], config, args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EmError, FilterError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # e.g. a bucket width far too fine for the time span
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
