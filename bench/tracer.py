"""Outside-in tracing of one sdsbm CLI command.

Run as a script, this module imports ``sdsbm.cli``, replaces selected
functions with timing wrappers in the namespace where each caller looks
them up, runs ``sdsbm.cli.main`` in-process and, when the command ends,
writes the recorded spans as JSON:

    PYTHONPATH=src python3 bench/tracer.py --spans spans.json --run-id 1 -- fit ...

Nothing under ``src/`` is edited.  A target that no longer exists is
reported as an absent layer instead of failing the run.  The pure
functions below (self time, layer totals, per-layer metrics) are also
used by ``run.py`` to aggregate the span files.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _steps_of_series(args, result):
    return {"steps": args[0].T}


def _steps_of_counts(args, result):
    return {"steps": len(args[0])}


# (module, attribute, layer, counter).  A counter reads work counts off
# the call's positional arguments and result after the span has closed.
TARGETS = (
    ("sdsbm.cli", "parse_inputs", "ingest.parse", lambda a, r: {"events": len(r[0])}),
    ("sdsbm.cli", "bucketize", "ingest.bucketize", None),
    ("sdsbm.cli", "extract_block_series", "graph_model.extract", None),
    (
        "sdsbm.cli",
        "generate_network",
        "generator.generate",
        lambda a, r: {"edges": sum(len(s) for s in r[0].snapshots)},
    ),
    (
        "sdsbm.cli",
        "em_fit",
        "em.fit",
        lambda a, r: {"iterations": r[1].iterations, "capped_blocks": int(not r[1].converged)},
    ),
    ("sdsbm.cli", "kalman_filter", "kalman.filter", _steps_of_series),
    ("sdsbm.cli", "kalman_forecast", "kalman.forecast", None),
    ("sdsbm.cli", "save_model", "ingest.model_io", None),
    ("sdsbm.cli", "load_model", "ingest.model_io", None),
    ("sdsbm.em", "e_step", "em.e_step", None),
    ("sdsbm.em", "m_step_initial", "em.m_step_initial", None),
    ("sdsbm.em", "m_step_r", "em.m_step_r", None),
    ("sdsbm.em", "m_step_q", "em.m_step_q", None),
    ("sdsbm.em", "run_filter", "kalman.filter", _steps_of_counts),
    ("sdsbm.em", "smooth", "kalman.smooth", _steps_of_series),
    ("sdsbm.anomaly", "score", "anomaly.score", None),
    ("sdsbm.anomaly", "detect", "anomaly.detect", lambda a, r: {"graph_flags": len(r.graph_flags)}),
    ("sdsbm.anomaly", "write_scores_csv", "anomaly.write", None),
    ("sdsbm.anomaly", "write_report_json", "anomaly.write", None),
    ("sdsbm.kalman", "filter", "kalman.filter", _steps_of_series),
    ("sdsbm.kalman", "smooth", "kalman.smooth", _steps_of_series),
)


class Tracer:
    """Spans kept in memory: name, start, end, parent span and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, layer: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    record["counts"] = counter(args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the call's shape changed; the count is left out
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, layer, counter in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, layer, counter))


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(clipped)
    return out


def layer_totals(spans) -> dict[str, dict]:
    """Per layer: inclusive time, self time, calls and summed counts.

    Inclusive time and counts come only from the outermost spans of a
    layer, so a layer that calls itself (directly or through others) is
    not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for s in spans:
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        outermost = parent is None
        _add(totals, s["name"], {
            "total": s["end"] - s["start"] if outermost else 0.0,
            "self": selfs[s["id"]],
            "calls": 1,
            "counts": s.get("counts", {}) if outermost else {},
        })
    return totals


def merge_totals(parts) -> dict[str, dict]:
    """Sum layer totals of several commands (one span file each)."""
    merged: dict[str, dict] = {}
    for totals in parts:
        for name, t in totals.items():
            _add(merged, name, t)
    return merged


def _add(totals: dict[str, dict], name: str, t: dict) -> None:
    into = totals.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0, "counts": {}})
    for key in ("total", "self", "calls"):
        into[key] += t[key]
    for key, value in t["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(totals: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics for one traced pipeline pass.

    Layers that did not run (or were absent) read 0.
    """

    def inc(layer):
        return totals.get(layer, {}).get("total", 0.0)

    def own(layer):
        return totals.get(layer, {}).get("self", 0.0)

    def count(layer, key):
        return totals.get(layer, {}).get("counts", {}).get(key, 0)

    events = count("ingest.parse", "events")
    iterations = count("em.fit", "iterations")
    smooth_steps = count("kalman.smooth", "steps")
    filter_steps = count("kalman.filter", "steps")
    return {
        "ingest.parse_s": (inc("ingest.parse"), "s"),
        "ingest.bucketize_s": (inc("ingest.bucketize"), "s"),
        "ingest.events": (events, "count"),
        "ingest.parse_us_per_event": (_ratio(1e6 * inc("ingest.parse"), events), "us/event"),
        "graph_model.extract_s": (inc("graph_model.extract"), "s"),
        "generator.generate_s": (inc("generator.generate"), "s"),
        "generator.edges": (count("generator.generate", "edges"), "count"),
        "cli.simulate.self_s": (own("cli.simulate"), "s"),
        "em.fit_s": (inc("em.fit"), "s"),
        "em.iterations": (iterations, "count"),
        "em.capped_blocks": (count("em.fit", "capped_blocks"), "count"),
        "em.ms_per_iter": (_ratio(1e3 * inc("em.fit"), iterations), "ms/iter"),
        "em.e_step.self_s": (own("em.e_step"), "s"),
        "em.m_step_r_s": (inc("em.m_step_r"), "s"),
        "em.m_step_q_s": (inc("em.m_step_q"), "s"),
        "em.m_step_initial_s": (inc("em.m_step_initial"), "s"),
        "kalman.smooth_s": (inc("kalman.smooth"), "s"),
        "kalman.smooth_steps": (smooth_steps, "count"),
        "kalman.smooth_us_per_step": (_ratio(1e6 * inc("kalman.smooth"), smooth_steps), "us/step"),
        "kalman.filter_s": (inc("kalman.filter"), "s"),
        "kalman.filter_steps": (filter_steps, "count"),
        "kalman.filter_us_per_step": (_ratio(1e6 * inc("kalman.filter"), filter_steps), "us/step"),
        "kalman.forecast_s": (inc("kalman.forecast"), "s"),
        "anomaly.score.self_s": (own("anomaly.score"), "s"),
        "anomaly.detect_s": (inc("anomaly.detect"), "s"),
        "anomaly.write_s": (inc("anomaly.write"), "s"),
        "anomaly.graph_flags": (count("anomaly.detect", "graph_flags"), "count"),
        "ingest.model_io_s": (inc("ingest.model_io"), "s"),
        "cli.fit.self_s": (own("cli.fit"), "s"),
        "cli.forecast.self_s": (own("cli.forecast"), "s"),
        "cli.detect.self_s": (own("cli.detect"), "s"),
        "cli.import_s": (inc("cli.import"), "s"),
    }


# ----------------------------------------------------------------------
# traced child process
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one sdsbm CLI command under the tracer")
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("--run-id", required=True, help="identifier shared by a pass's spans")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER, help="-- then the sdsbm arguments")
    opts = parser.parse_args(argv)
    cli_argv = opts.cli_argv[1:] if opts.cli_argv[:1] == ["--"] else opts.cli_argv
    if not cli_argv:
        parser.error("no sdsbm command given")
    tracer = Tracer(opts.run_id)
    with tracer.span("cli.import"):
        cli = importlib.import_module("sdsbm.cli")
    tracer.install()
    command = cli_argv[0]
    with tracer.span(f"cli.{command}"):
        rc = cli.main(cli_argv)
    with open(opts.spans, "w") as fh:
        json.dump(
            {"run": opts.run_id, "command": command, "absent": tracer.absent, "spans": tracer.spans},
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
