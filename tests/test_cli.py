import csv
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import csv_reference
import generator_reference
import numpy as np
import pytest

from sdsbm import anomaly, ingest, kalman
from sdsbm.cli import (
    BLOCK_OPTIONS,
    EMPTY_GRAPH,
    EXIT_ANOMALIES,
    EXIT_DATA,
    EXIT_MAX_ITER,
    EXIT_OK,
    EXIT_USAGE,
    MISSING_OBSERVATION,
    OPTIONS,
    _resolve,
    _z_quantile,
    build_parser,
    main,
)
from sdsbm.generator import seasonal_state, sine_profile
from sdsbm.em import EmConfig, default_init, em_fit
from sdsbm.graph_model import CHUNK_ROWS, VertexTyping, edge_keys, extract_block_series, pair_key
from sdsbm.ingest import (
    BucketingConfig,
    load_model,
    parse_inputs,
    save_model,
)
from sdsbm.ssm import ModelParams

from conftest import gaps_as_nan, known_start, stacked


def run(*args) -> int:
    return main([str(a) for a in args])


def simulate_small(out_dir, seed=7, steps=50, extra=()):
    return run(
        "simulate",
        "--seed", seed,
        "--period", 4,
        "--steps", steps,
        "--types", "a=16,b=12",
        "--q-m", 5e-4,
        "--q-s", 5e-4,
        "--r", 0.0,
        "--bias", 0.55,
        "--season-amplitude", 0.06,
        "--out-dir", out_dir,
        *extra,
    )


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_deterministic_across_runs(self, tmp_path, monkeypatch):
        for sub in ("run1", "run2"):
            monkeypatch.chdir(tmp_path)
            (tmp_path / sub).mkdir()
            monkeypatch.chdir(tmp_path / sub)
            assert simulate_small("out") == EXIT_OK
        for name in ("events.csv", "types.csv", "ground_truth.csv", "run_config.json"):
            a = (tmp_path / "run1" / "out" / name).read_bytes()
            b = (tmp_path / "run2" / "out" / name).read_bytes()
            assert a == b, name

    def test_zero_steps_gives_headers_only(self, tmp_path):
        assert simulate_small(tmp_path, steps=0) == EXIT_OK
        assert (tmp_path / "events.csv").read_text() == "timestamp,src,dst\n"
        assert (tmp_path / "ground_truth.csv").read_text() == "t,block,m,s,e,w\n"

    def test_no_block_walks_no_snapshot(self, tmp_path):
        # one vertex has no possible edge, so every snapshot is empty and
        # the outputs are written without walking the steps
        start = time.perf_counter()
        assert run("simulate", "--steps", 10**6, "--types", "a=1", "--out-dir", tmp_path) == EXIT_OK
        assert time.perf_counter() - start < 2.0
        assert (tmp_path / "events.csv").read_text() == "timestamp,src,dst\n"
        assert (tmp_path / "types.csv").read_text() == "vertex,type\na0,a\n"
        assert (tmp_path / "ground_truth.csv").read_text() == "t,block,m,s,e,w\n"
        # no step is stamped, so no width is refused
        assert run("simulate", "--steps", 3, "--types", "a=1", "--width", 1e308,
                   "--out-dir", tmp_path / "wide") == EXIT_OK
        assert (tmp_path / "wide" / "events.csv").read_text() == "timestamp,src,dst\n"

    def test_default_scenario_is_fast(self, tmp_path):
        start = time.perf_counter()
        assert run("simulate", "--seed", 1, "--out-dir", tmp_path) == EXIT_OK
        assert time.perf_counter() - start < 5.0
        rows = read_rows(tmp_path / "ground_truth.csv")
        assert len(rows) == 280 * 3  # three blocks over the default horizon

    def test_ground_truth_matches_events(self, tmp_path):
        simulate_small(tmp_path)
        net = parse_inputs(
            tmp_path / "events.csv", tmp_path / "types.csv", BucketingConfig(origin=0.0, width=1.0, T=50)
        )
        stack = extract_block_series(net)
        by_pair = dict(zip(stack.pairs, stack.counts))
        for row in read_rows(tmp_path / "ground_truth.csv"):
            pair = tuple(row["block"].split(":"))
            assert by_pair[pair][int(row["t"]) - 1] == float(row["w"])

    def test_invalid_params_exit_data(self, tmp_path):
        assert simulate_small(tmp_path, extra=("--q-m", -1.0)) == EXIT_DATA

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--q-m", "nan"),
            ("--q-m", "inf"),
            ("--r", "nan"),
            ("--bias", "nan"),
            ("--season-amplitude", "inf"),
            ("--width", 0),
            ("--width", -1),
            ("--width", "nan"),
            ("--period", 0),
            ("--period", -1),
        ],
    )
    def test_degenerate_input_is_data_error(self, tmp_path, capsys, option, value):
        out = tmp_path / "out"
        assert simulate_small(out, extra=(option, value)) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()  # refused before any output is written

    @pytest.mark.parametrize("period", [1, 0, -1])
    def test_bad_period_is_refused_without_blocks(self, tmp_path, capsys, period):
        # a lone vertex forms no block, so no block's parameters check the period
        out = tmp_path / "out"
        assert run("simulate", "--types", "c=1", "--period", period, "--out-dir", out) == EXIT_DATA
        assert capsys.readouterr().err == "error: period d must be >= 2\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim")
    assert simulate_small(path) == EXIT_OK
    return path


def fit_args(sim_dir, out_dir, *extra):
    return (
        "fit",
        "--events", sim_dir / "events.csv",
        "--types", sim_dir / "types.csv",
        "--period", 4,
        "--out-dir", out_dir,
        *extra,
    )


@pytest.mark.parametrize("policy", [EMPTY_GRAPH, MISSING_OBSERVATION])
def test_too_fine_bucket_width_is_data_error(tmp_path, capsys, policy):
    # 1e18 buckets of width 1e-3 between the two events: the counts array
    # is refused outright by the allocator, so no memory is reserved
    events = tmp_path / "events.csv"
    events.write_text("timestamp,src,dst\n0.5,a0,a1\n1e15,a0,a1\n")
    types = tmp_path / "types.csv"
    types.write_text("vertex,type\na0,a\na1,a\n")
    code = run(
        "fit", "--events", events, "--types", types, "--width", 1e-3,
        "--missing-policy", policy, "--out-dir", tmp_path / "out",
    )
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: out of memory")


class TestFit:
    def test_fit_outputs_and_monotone_trace(self, sim_dir, tmp_path):
        code = run(*fit_args(sim_dir, tmp_path, "--max-iter", 600, "--tol", 1e-5))
        assert code == EXIT_OK
        params, ns = load_model(tmp_path / "model.json")
        assert set(ns) == {("a", "a"), ("a", "b"), ("b", "b")}
        assert ns[("a", "a")] == 120
        rows = read_rows(tmp_path / "em_trace.csv")
        by_block = {}
        for row in rows:
            by_block.setdefault(row["block"], []).append(float(row["loglik"]))
        for block, lls in by_block.items():
            assert np.all(np.diff(lls) >= -1e-8), block

    def test_max_iter_exit_code(self, sim_dir, tmp_path):
        code = run(*fit_args(sim_dir, tmp_path, "--max-iter", 3))
        assert code == EXIT_MAX_ITER

    def test_max_iter_names_capped_blocks(self, sim_dir, tmp_path, capsys):
        capsys.readouterr()
        assert run(*fit_args(sim_dir, tmp_path, "--max-iter", 3)) == EXIT_MAX_ITER
        lines = capsys.readouterr().err.splitlines()
        capped = [line for line in lines if "--max-iter" in line]
        assert capped == [
            "warning: EM stopped at --max-iter 3 before converging in 3 of 3 blocks: a:a, a:b, b:b"
        ]
        assert len(lines) <= 2  # at most one more line: the Gaussian-regime count

    def test_non_gaussian_steps_are_one_counted_line(self, tmp_path, capsys):
        # sparse small blocks put many predicted counts near 0
        sim = tmp_path / "sim"
        assert run("simulate", "--seed", 3, "--period", 4, "--steps", 30,
                   "--types", "a=5,b=5,c=5", "--bias", 0.1, "--out-dir", sim) == EXIT_OK
        data = ("--events", sim / "events.csv", "--types", sim / "types.csv")
        commands = [
            ("fit", *data, "--period", 4, "--max-iter", 5, "--out-dir", tmp_path / "fit"),
            ("forecast", "--model", tmp_path / "fit" / "model.json", *data,
             "--horizon", 4, "--out-dir", tmp_path / "fc"),
            ("detect", "--model", tmp_path / "fit" / "model.json", *data, "--out-dir", tmp_path / "det"),
        ]
        for args in commands:
            capsys.readouterr()
            assert run(*args) in (EXIT_OK, EXIT_MAX_ITER, EXIT_ANOMALIES)
            counted = [l for l in capsys.readouterr().err.splitlines() if "block-steps" in l]
            assert len(counted) == 1, args[0]
            assert int(counted[0].split()[1]) > 0

    def test_estep_failure_names_block_and_writes_nothing(
        self, sim_dir, fitted_dir, tmp_path, capsys, monkeypatch
    ):
        params, ns = load_model(fitted_dir / "model.json")
        b = list(ns).index(("a", "b"))
        bad = params[b]
        params = params.put([b], stacked([ModelParams(
            d=bad.d, q_m=bad.q_m, q_s=bad.q_s, r=bad.r, mu0=bad.mu0, Sigma0=-10.0 * np.eye(bad.d)
        )]))
        # load_model refuses a Sigma0 that is not PSD, so the warm start is
        # handed to fit past it, for its E-step to fail
        monkeypatch.setattr("sdsbm.cli.load_model", lambda path: (params, ns))
        out = tmp_path / "out"
        capsys.readouterr()
        code = run(*fit_args(sim_dir, out, "--init-model", tmp_path / "warm.json"))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: iteration 0: block a:b: t=1: non-positive innovation variance")
        assert not (out / "model.json").exists() and not (out / "em_trace.csv").exists()

    @pytest.mark.parametrize("period, message", [
        (5, "init model period 4 does not match --period 5"),
        (4, "init model shares no block with the data"),
    ])
    def test_init_model_that_cannot_warm_start_is_data_error(
        self, fitted_dir, tmp_path, capsys, period, message
    ):
        # a model of types a, b on data of types x, y: the period is checked
        # before the blocks are matched, and a model sharing no block with
        # the data is refused instead of silently ignored
        (tmp_path / "types.csv").write_text("vertex,type\nx0,x\nx1,x\nx2,x\ny0,y\ny1,y\n")
        (tmp_path / "events.csv").write_text("timestamp,src,dst\n0.5,x0,x1\n1.5,y0,y1\n2.5,x0,y1\n")
        code = run(
            "fit", "--events", tmp_path / "events.csv", "--types", tmp_path / "types.csv",
            "--period", period, "--init-model", fitted_dir / "model.json", "--max-iter", 2,
            "--out-dir", tmp_path / "out",
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out" / "model.json").exists()

    def test_fix_r_zero_pins_trace(self, sim_dir, tmp_path):
        run(*fit_args(sim_dir, tmp_path, "--max-iter", 5, "--fix-r-zero"))
        assert all(float(r["r"]) == 0.0 for r in read_rows(tmp_path / "em_trace.csv"))

    def test_refit_from_saved_model_converges_fast(self, sim_dir, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run(*fit_args(sim_dir, first, "--max-iter", 600, "--tol", 1e-5)) == EXIT_OK
        code = run(
            *fit_args(sim_dir, second, "--init-model", first / "model.json", "--tol", 1e-5)
        )
        assert code == EXIT_OK
        iters = {}
        for row in read_rows(second / "em_trace.csv"):
            iters[row["block"]] = max(iters.get(row["block"], 0), int(row["iter"]))
        assert all(v <= 2 for v in iters.values())

    def test_missing_observation_policy_end_to_end(self, sim_dir, tmp_path):
        # drop every event of one bucket; under the gap policy the step
        # is skipped by the filter and scored as empty
        lines = (sim_dir / "events.csv").read_text().splitlines()
        kept = [lines[0]] + [
            l for l in lines[1:] if not 20.0 <= float(l.split(",")[0]) < 21.0
        ]
        events = tmp_path / "events.csv"
        events.write_text("\n".join(kept) + "\n")
        fit_dir = tmp_path / "fit"
        code = run(
            "fit",
            "--events", events,
            "--types", sim_dir / "types.csv",
            "--period", 4,
            "--t-cap", 50,
            "--missing-policy", "missing-observation",
            "--max-iter", 600, "--tol", 1e-5,
            "--out-dir", fit_dir,
        )
        assert code in (EXIT_OK, EXIT_MAX_ITER)
        det_dir = tmp_path / "det"
        code = run(
            "detect",
            "--model", fit_dir / "model.json",
            "--events", events,
            "--types", sim_dir / "types.csv",
            "--t-cap", 50,
            "--missing-policy", "missing-observation",
            "--sigma", 3,
            "--out-dir", det_dir,
        )
        assert code in (EXIT_OK, EXIT_ANOMALIES)
        gap_rows = [
            r for r in read_rows(det_dir / "scores.csv")
            if r["t"] == "21" and r["scope"] == "block"
        ]
        assert gap_rows and all(r["loglik"] == "" for r in gap_rows)
        # no block observed: the snapshot has no graph score, and even an
        # infinite floor, which flags every observed step, leaves it out
        code = run(
            "detect",
            "--model", fit_dir / "model.json",
            "--events", events,
            "--types", sim_dir / "types.csv",
            "--t-cap", 50,
            "--missing-policy", "missing-observation",
            "--loglik-threshold", "inf",
            "--out-dir", det_dir,
        )
        assert code == EXIT_ANOMALIES
        graph_rows = [r for r in read_rows(det_dir / "scores.csv") if r["scope"] == "graph"]
        assert [(r["loglik"], r["flagged"]) for r in graph_rows if r["t"] == "21"] == [("", "0")]
        assert [r["t"] for r in graph_rows if r["flagged"] == "1"] == [str(t) for t in range(1, 51) if t != 21]
        assert json.loads((det_dir / "report.json").read_text())["counts"]["graph"] == 49

    def test_all_gap_fit_is_data_error(self, tmp_path, capsys):
        # every event shifted past the cap: under the gap policy no count
        # is observed, and EM would run to --max-iter fitting nothing
        sim = tmp_path / "sim"
        assert run("simulate", "--seed", 1, "--steps", 20, "--types", "a=4,b=3",
                   "--out-dir", sim) == EXIT_OK
        header, *rows = (sim / "events.csv").read_text().splitlines()
        shifted = [f"{float(row.split(',')[0]) + 100},{row.split(',', 1)[1]}" for row in rows]
        events = tmp_path / "events.csv"
        events.write_text("\n".join([header, *shifted]) + "\n")
        out = tmp_path / "fit"
        code = run("fit", "--events", events, "--types", sim / "types.csv", "--t-cap", 10,
                   "--missing-policy", MISSING_OBSERVATION, "--out-dir", out)
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "error: block a:a has no observed count to fit\n"
        assert not out.exists()  # refused before any output is written

    def test_no_edge_fit_is_data_error(self, tmp_path, capsys):
        # every event shifted past the cap: under the empty-graph policy
        # every count is an observed 0, and EM would fit an empty network;
        # forecast and detect still score such data
        sim = tmp_path / "sim"
        assert run("simulate", "--seed", 1, "--steps", 20, "--types", "a=4,b=3",
                   "--out-dir", sim) == EXIT_OK
        header, *rows = (sim / "events.csv").read_text().splitlines()
        shifted = [f"{float(row.split(',')[0]) + 100},{row.split(',', 1)[1]}" for row in rows]
        events = tmp_path / "events.csv"
        events.write_text("\n".join([header, *shifted]) + "\n")
        data = ("--events", events, "--types", sim / "types.csv", "--t-cap", 10)
        out = tmp_path / "fit"
        capsys.readouterr()
        assert run("fit", *data, "--out-dir", out) == EXIT_DATA
        assert capsys.readouterr().err == "error: no edge to fit: every observed count of every block is 0\n"
        assert not out.exists()  # refused before any output is written
        fitted = tmp_path / "fitted"
        sim_data = ("--events", sim / "events.csv", "--types", sim / "types.csv")
        assert run("fit", *sim_data, "--max-iter", 3, "--out-dir", fitted) in (EXIT_OK, EXIT_MAX_ITER)
        model = ("--model", fitted / "model.json", *data)
        assert run("forecast", *model, "--horizon", 2, "--out-dir", tmp_path / "fc") == EXIT_OK
        assert run("detect", *model, "--out-dir", tmp_path / "det") in (EXIT_OK, EXIT_ANOMALIES)
        assert len(read_rows(tmp_path / "det" / "scores.csv")) > 0

    def test_nan_tol_is_data_error(self, sim_dir, tmp_path, capsys):
        # a NaN tolerance never stops EM, so every block would run to the cap
        assert run(*fit_args(sim_dir, tmp_path, "--tol", "nan")) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: tol must be non-negative")

    def test_missing_events_flag_is_usage_error(self, tmp_path):
        assert run("fit", "--types", "x.csv", "--out-dir", tmp_path) == EXIT_USAGE

    def test_unreadable_events_is_data_error(self, tmp_path, sim_dir, capsys):
        code = run(
            "fit",
            "--events", tmp_path / "nope.csv",
            "--types", sim_dir / "types.csv",
            "--out-dir", tmp_path,
        )
        assert code == EXIT_DATA
        # events that yield no time buckets: the message names the cause
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp,src,dst\n")
        for events, extra, cause in (
            (sim_dir / "events.csv", ("--t-cap", 0), "the bucket cap (--t-cap) is 0"),
            (empty, (), "the event file is empty"),
        ):
            capsys.readouterr()
            code = run(
                "fit", "--events", events, "--types", sim_dir / "types.csv",
                *extra, "--out-dir", tmp_path,
            )
            assert code == EXIT_DATA
            assert capsys.readouterr().err == f"error: no time buckets: {cause}\n"

    @pytest.mark.parametrize("bad", ["events", "types"])
    def test_oversized_csv_field_is_data_error(self, tmp_path, sim_dir, capsys, bad):
        # csv.reader refuses a field longer than its 131072-character limit
        files = {"events": sim_dir / "events.csv", "types": sim_dir / "types.csv"}
        files[bad] = tmp_path / f"{bad}.csv"
        long = "x" * 200_000
        files[bad].write_text(
            f"timestamp,src,dst\n1,{long},2\n" if bad == "events" else f"vertex,type\n{long},a\n"
        )
        code = run("fit", "--events", files["events"], "--types", files["types"],
                   "--out-dir", tmp_path / "out")
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: {files[bad]}:2: field larger than field limit (131072)\n", err[:200]


@pytest.fixture(scope="module")
def fitted_dir(sim_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("fit")
    code = run(*fit_args(sim_dir, path, "--max-iter", 600, "--tol", 1e-5))
    assert code == EXIT_OK
    return path


class TestForecast:
    def test_gaussian_quantile(self):
        assert _z_quantile(0.95) * math.sqrt(25.0) == pytest.approx(9.79982, abs=1e-5)

    def test_only_forecast_loads_statistics(self):
        # statistics (and the decimal and fractions it loads) is only for
        # forecast's quantile, so simulate, fit and detect start without it
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        probe = "import sys, sdsbm.cli; print(sorted({'statistics', 'decimal'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_matches_direct_forecast_call(self, sim_dir, fitted_dir, tmp_path):
        code = run(
            "forecast",
            "--model", fitted_dir / "model.json",
            "--events", sim_dir / "events.csv",
            "--types", sim_dir / "types.csv",
            "--horizon", 1,
            "--out-dir", tmp_path,
        )
        assert code == EXIT_OK
        params, ns = load_model(fitted_dir / "model.json")
        net = parse_inputs(
            sim_dir / "events.csv", sim_dir / "types.csv", BucketingConfig(origin=0.0, width=1.0)
        )
        stack = extract_block_series(net)
        assert stack.pairs == tuple(ns) == tuple(sorted(ns))
        seq = kalman.filter(stack.with_gaps(1), params)
        rows = read_rows(tmp_path / "forecast.csv")
        assert [tuple(row["block"].split(":")) for row in rows] == list(stack.pairs)
        for b, row in enumerate(rows):
            assert float(row["mean"]) == seq.pred_count[b, stack.T]
            assert float(row["variance"]) == seq.innov_var[b, stack.T]
            assert int(row["t"]) == stack.T + 1

    def test_bounds_use_requested_level(self, sim_dir, fitted_dir, tmp_path):
        run(
            "forecast",
            "--model", fitted_dir / "model.json",
            "--events", sim_dir / "events.csv",
            "--types", sim_dir / "types.csv",
            "--horizon", 4,
            "--level", 0.8,
            "--out-dir", tmp_path,
        )
        z = _z_quantile(0.8)
        for row in read_rows(tmp_path / "forecast.csv"):
            half = z * math.sqrt(float(row["variance"]))
            assert float(row["upper"]) - float(row["mean"]) == pytest.approx(half, rel=1e-12)
            assert float(row["mean"]) - float(row["lower"]) == pytest.approx(half, rel=1e-12)

    def test_pinned_r_blows_up_bounds_while_free_r_stays_bounded(self, tmp_path):
        # fitting measurement-noise data with r pinned to zero forces the
        # process variance to absorb it, and the accumulated forecast
        # uncertainty overshoots the block's edge capacity within three
        # periods; the free fit keeps its bounds below n
        n = 64 * 63 // 2
        assert run(
            "simulate", "--seed", 5, "--period", 7, "--steps", 280,
            "--types", "a=64", "--bias", 0.75, "--season-amplitude", 0.1,
            "--q-m", 1e-7, "--q-s", 1e-7, "--r", 3e-3,
            "--out-dir", tmp_path / "sim",
        ) == EXIT_OK
        uppers = {}
        for mode, extra in [("free", ()), ("pinned", ("--fix-r-zero",))]:
            code = run(
                "fit",
                "--events", tmp_path / "sim" / "events.csv",
                "--types", tmp_path / "sim" / "types.csv",
                "--period", 7, "--max-iter", 80, "--tol", 1e-9,
                "--out-dir", tmp_path / mode, *extra,
            )
            assert code in (EXIT_OK, EXIT_MAX_ITER)
            assert run(
                "forecast",
                "--model", tmp_path / mode / "model.json",
                "--events", tmp_path / "sim" / "events.csv",
                "--types", tmp_path / "sim" / "types.csv",
                "--horizon", 21,
                "--out-dir", tmp_path / mode,
            ) == EXIT_OK
            rows = read_rows(tmp_path / mode / "forecast.csv")
            uppers[mode] = max(float(r["upper"]) for r in rows)
        assert uppers["free"] < n
        assert uppers["pinned"] > n

    def test_zero_horizon_rejected(self, sim_dir, fitted_dir, tmp_path):
        code = run(
            "forecast",
            "--model", fitted_dir / "model.json",
            "--events", sim_dir / "events.csv",
            "--types", sim_dir / "types.csv",
            "--horizon", 0,
            "--out-dir", tmp_path,
        )
        assert code == EXIT_USAGE


class TestDetect:
    def detect_args(self, sim_dir, fitted_dir, out_dir, *extra):
        return (
            "detect",
            "--model", fitted_dir / "model.json",
            "--events", sim_dir / "events.csv",
            "--types", sim_dir / "types.csv",
            "--out-dir", out_dir,
            *extra,
        )

    def test_minus_infinity_floor_reports_no_anomalies(self, sim_dir, fitted_dir, tmp_path):
        code = run(
            *self.detect_args(
                sim_dir, fitted_dir, tmp_path, "--loglik-threshold=-inf"
            )
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["flagged"] == []
        assert (tmp_path / "scores.csv").exists()

    def test_injected_spike_found_and_ranked(self, sim_dir, fitted_dir, tmp_path):
        # copy the events and inject a burst of extra edges in one block
        events = (sim_dir / "events.csv").read_text().splitlines()
        burst = [f"30.5,a{i},a{j}" for i in range(10) for j in range(i + 1, 10)]
        spiked = tmp_path / "events.csv"
        spiked.write_text("\n".join(events + burst) + "\n")
        code = run(
            "detect",
            "--model", fitted_dir / "model.json",
            "--events", spiked,
            "--types", sim_dir / "types.csv",
            "--out-dir", tmp_path,
            "--sigma", 3,
            "--drill-down",
        )
        assert code == EXIT_ANOMALIES
        payload = json.loads((tmp_path / "report.json").read_text())
        hits = [f for f in payload["flagged"] if f["scope"] == "graph" and f["t"] == 31]
        assert hits
        assert hits[0]["ranked_blocks"][0][0] == ["a", "a"]

    @pytest.mark.parametrize("drill_down", [False, True], ids=["flat", "drill-down"])
    @pytest.mark.parametrize("mode", ["predictive", "smoothed"])
    @pytest.mark.parametrize("policy", [("--sigma", 2), ("--loglik-threshold", -10)], ids=["sigma", "loglik"])
    def test_scores_csv_and_report_json_agree(self, sim_dir, fitted_dir, tmp_path, policy, mode, drill_down):
        extra = (*policy, "--mode", mode) + (("--drill-down",) if drill_down else ())
        code = run(*self.detect_args(sim_dir, fitted_dir, tmp_path, *extra))
        rows = [r for r in read_rows(tmp_path / "scores.csv") if r["flagged"] == "1"]
        graph_steps = {int(r["t"]) for r in rows if r["scope"] == "graph"}
        block_rows = {(int(r["t"]), r["block_a"], r["block_b"]) for r in rows if r["scope"] == "block"}
        assert graph_steps, "the policy must flag some step for the check to bite"
        assert code == EXIT_ANOMALIES
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["counts"] == {"graph": len(graph_steps), "block": len(block_rows)}
        graph_items = [f for f in payload["flagged"] if f["scope"] == "graph"]
        block_items = [f for f in payload["flagged"] if f["scope"] == "block"]
        assert all(f["t"] in graph_steps for f in graph_items)
        assert {(f["t"], *f["block"]) for f in block_items} == block_rows
        assert all((f["ranked_blocks"] is not None) == drill_down for f in graph_items)
        assert all(f["ranked_blocks"] is None for f in block_items)

    def test_smoothed_mode_runs(self, sim_dir, fitted_dir, tmp_path):
        code = run(
            *self.detect_args(sim_dir, fitted_dir, tmp_path, "--mode", "smoothed")
        )
        assert code in (EXIT_OK, EXIT_ANOMALIES)
        resolved = json.loads((tmp_path / "run_config.json").read_text())
        assert resolved["mode"] == "smoothed"
        rows = [r for r in read_rows(tmp_path / "scores.csv") if r["scope"] == "block"]
        assert all(r["loglik"] != "" for r in rows)

    def test_typing_mismatch_is_data_error(self, sim_dir, fitted_dir, tmp_path):
        bad_types = tmp_path / "types.csv"
        bad_types.write_text("vertex,type\nx,a\ny,b\n")
        empty = tmp_path / "events.csv"
        empty.write_text("timestamp,src,dst\nx,y\n".replace("x,y", "0.5,x,y"))
        code = run(
            "detect",
            "--model", fitted_dir / "model.json",
            "--events", empty,
            "--types", bad_types,
            "--out-dir", tmp_path,
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("option", ["--sigma", "--loglik-threshold"])
    def test_nan_threshold_is_data_error(self, sim_dir, fitted_dir, tmp_path, capsys, option):
        # a NaN threshold compares false everywhere and would flag nothing
        code = run(*self.detect_args(sim_dir, fitted_dir, tmp_path, option, "nan"))
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: ")

    def test_sigma_and_loglik_flags_conflict(self, sim_dir, fitted_dir, tmp_path):
        code = run(
            *self.detect_args(
                sim_dir, fitted_dir, tmp_path, "--sigma", 3, "--loglik-threshold", -5
            )
        )
        assert code == EXIT_USAGE


@pytest.mark.parametrize("option", ["--origin", "--width"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_bucketing_is_data_error(sim_dir, fitted_dir, tmp_path, capsys, option, value):
    data = ("--events", sim_dir / "events.csv", "--types", sim_dir / "types.csv",
            f"{option}={value}", "--t-cap", 28)
    commands = [
        ("fit", "--period", 4, *data),
        ("forecast", "--model", fitted_dir / "model.json", "--horizon", 3, *data),
        ("detect", "--model", fitted_dir / "model.json", *data),
    ]
    for args in commands:
        capsys.readouterr()
        assert run(*args, "--out-dir", tmp_path) == EXIT_DATA, args[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"got {value}" in err, (args[0], err)


def test_unmodelled_data_block_is_data_error(fitted_dir, tmp_path, capsys):
    # a third type adds blocks a:c, b:c and c:c that the model lacks;
    # forecast and detect refuse the data instead of leaving them unscored
    assert simulate_small(tmp_path / "sim", extra=("--types", "a=16,b=12,c=5")) == EXIT_OK
    data = ("--model", fitted_dir / "model.json", "--events", tmp_path / "sim" / "events.csv",
            "--types", tmp_path / "sim" / "types.csv", "--out-dir", tmp_path / "out")
    for args in (("forecast", "--horizon", 3, *data), ("detect", *data)):
        capsys.readouterr()
        assert run(*args) == EXIT_DATA, args[0]
        err = capsys.readouterr().err
        assert err == "error: typing mismatch: data block a:c is not in the model\n", args[0]


def test_single_vertex_type_has_no_block_in_any_output(tmp_path):
    # c has one vertex, so c:c has no possible edges and is no block
    sim, fit = tmp_path / "sim", tmp_path / "fit"
    args = ("--seed", 3, "--period", 4, "--steps", 30, "--types", "a=4,b=3,c=1")
    assert run("simulate", *args, "--out-dir", sim) == EXIT_OK
    data = ("--events", sim / "events.csv", "--types", sim / "types.csv")
    assert run("fit", *data, "--period", 4, "--max-iter", 3, "--out-dir", fit) in (EXIT_OK, EXIT_MAX_ITER)
    model = ("--model", fit / "model.json", *data)
    assert run("forecast", *model, "--horizon", 2, "--out-dir", tmp_path / "fc") == EXIT_OK
    assert run("detect", *model, "--out-dir", tmp_path / "det") in (EXIT_OK, EXIT_ANOMALIES)
    want = ["a:a", "a:b", "a:c", "b:b", "b:c"]
    document = json.loads((fit / "model.json").read_text())
    assert [f"{b['a']}:{b['b']}" for b in document["blocks"]] == want
    for path in (sim / "ground_truth.csv", fit / "em_trace.csv", tmp_path / "fc" / "forecast.csv"):
        assert list(dict.fromkeys(row["block"] for row in read_rows(path))) == want, path.name
    scores = read_rows(tmp_path / "det" / "scores.csv")
    blocks = [f"{r['block_a']}:{r['block_b']}" for r in scores if r["scope"] == "block"]
    assert list(dict.fromkeys(blocks)) == want


def test_type_labels_that_csv_quotes_round_trip(tmp_path):
    # a quote and a space in the labels: every writer quotes them and every reader unquotes them
    sim, fit = tmp_path / "sim", tmp_path / "fit"
    assert run("simulate", "--seed", 5, "--period", 4, "--steps", 20, "--types", 'a"q=3,b x=2',
               "--out-dir", sim) == EXIT_OK
    data = ("--events", sim / "events.csv", "--types", sim / "types.csv")
    assert run("fit", *data, "--period", 4, "--max-iter", 3, "--out-dir", fit) in (EXIT_OK, EXIT_MAX_ITER)
    model = ("--model", fit / "model.json", *data)
    assert run("forecast", *model, "--horizon", 2, "--out-dir", tmp_path / "fc") == EXIT_OK
    assert run("detect", *model, "--out-dir", tmp_path / "det") in (EXIT_OK, EXIT_ANOMALIES)
    fields = (sim / "events.csv").read_text(encoding="utf-8").replace("\n", ",").split(",")
    assert '"a""q0"' in fields
    scores = read_rows(tmp_path / "det" / "scores.csv")
    blocks = {(r["block_a"], r["block_b"]) for r in scores if r["scope"] == "block"}
    assert blocks == {('a"q', 'a"q'), ('a"q', "b x"), ("b x", "b x")}


def test_simulate_streams_the_reference_network(tmp_path):
    # labels that need quoting and a type with a lone vertex (no c:c block)
    assert_simulate_streams_the_reference_network(tmp_path, 'a"q=3,b x=2,c=1', 30)


def test_simulate_streams_snapshots_past_a_chunk(tmp_path):
    # snapshots of about 12k edges, whose rows span several written chunks
    assert_simulate_streams_the_reference_network(tmp_path, 'a"q=200', 2, snapshot_edges=CHUNK_ROWS)


def assert_simulate_streams_the_reference_network(tmp_path, types, T, snapshot_edges=0):
    """events.csv holds exactly the reference generator's edges, in key
    order, and ground_truth.csv its states, densities and counts, t-major
    in canonical block order; every snapshot holds more than
    ``snapshot_edges`` edges."""
    seed, width = 5, 0.5
    assert run("simulate", "--seed", seed, "--steps", T, "--width", width,
               "--types", types, "--out-dir", tmp_path) == EXIT_OK
    types = read_rows(tmp_path / "types.csv")
    typing = VertexTyping({row["vertex"]: row["type"] for row in types})
    defaults = {k: OPTIONS["simulate"][k].default for k in (*BLOCK_OPTIONS, "period")}
    d = defaults["period"]
    mu0 = seasonal_state(d, defaults["bias"], sine_profile(d, defaults["season_amplitude"]))
    params = known_start(defaults["q_m"], defaults["q_s"], defaults["r"], mu0)
    pairs = typing.blocks()[0]
    ref_net, states, density, counts = generator_reference.generate_network(
        params.take([0] * len(pairs)), typing, T, np.random.default_rng(seed)
    )
    assert len(counts) == len(pairs) and ("c", "c") not in pairs

    events = read_rows(tmp_path / "events.csv")
    index = typing.vertex_index()
    t = [round(float(row["timestamp"]) / width + 0.5) for row in events]
    assert [row["timestamp"] for row in events] == [repr((k - 0.5) * width) for k in t]
    assert np.bincount(t, minlength=T + 1)[1:].min() > snapshot_edges
    keys = edge_keys(t, [index[row["src"]] for row in events], [index[row["dst"]] for row in events],
                     len(index))
    assert keys.tolist() == ref_net.keys.tolist()

    want = [
        [str(k), pair_key(pair), *(repr(float(x)) for x in (*states[b, k - 1, :2], density[b, k - 1])),
         str(int(counts[b, k - 1]))]
        for k in range(1, T + 1) for b, pair in enumerate(pairs)
    ]
    assert [list(row.values()) for row in read_rows(tmp_path / "ground_truth.csv")] == want


@pytest.fixture(scope="module")
def gap_run(tmp_path_factory):
    """Data with labels that CSV quotes and with gaps: a simulated network
    with steps 5-7's events dropped, fitted under the gap policy.  Gives
    the directory, the data options and the data's blocks as the CLI
    reads them."""
    path = tmp_path_factory.mktemp("gaps")
    sim = path / "sim"
    assert run("simulate", "--seed", 3, "--period", 4, "--steps", 30, "--types", 'a"q=5,b x=4',
               "--out-dir", sim) == EXIT_OK
    with open(sim / "events.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    with open(path / "events.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [header, *(row for row in rows if not 4 < float(row[0]) < 7)]
        )
    data = ("--events", path / "events.csv", "--types", sim / "types.csv",
            "--missing-policy", MISSING_OBSERVATION)
    assert run("fit", *data, "--period", 4, "--max-iter", 10, "--out-dir", path / "fit") in (
        EXIT_OK, EXIT_MAX_ITER)
    net = parse_inputs(path / "events.csv", sim / "types.csv", BucketingConfig(origin=0.0, width=1.0))
    blocks = extract_block_series(net)
    gaps_as_nan(blocks.counts)
    assert np.isnan(blocks.counts[:, 4:7]).all() and blocks.pairs[0] == ('a"q', 'a"q')
    return path, data, blocks


def test_em_trace_matches_the_row_writer(gap_run, tmp_path):
    path, _, blocks = gap_run
    _, traces = em_fit(blocks, default_init(blocks, 4), EmConfig(max_iter=10))
    csv_reference.write_em_trace(tmp_path / "em_trace.csv", blocks.pairs, traces)
    assert (path / "fit" / "em_trace.csv").read_bytes() == (tmp_path / "em_trace.csv").read_bytes()


def test_forecast_matches_the_row_writer(gap_run, tmp_path):
    path, data, blocks = gap_run
    model = path / "fit" / "model.json"
    assert run("forecast", "--model", model, *data, "--horizon", 5, "--out-dir", tmp_path) == EXIT_OK
    params, _ = load_model(model)
    seq = kalman.filter(blocks.with_gaps(5), params)
    csv_reference.write_forecast(tmp_path / "want.csv", blocks.pairs, seq, blocks.T, _z_quantile(0.95))
    assert (tmp_path / "forecast.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("drill_down", [False, True], ids=["flat", "drill-down"])
@pytest.mark.parametrize("mode", ["predictive", "smoothed"])
@pytest.mark.parametrize("policy", [("--sigma", 1.5), ("--loglik-threshold", -8)], ids=["sigma", "loglik"])
def test_scores_csv_matches_the_row_writer(gap_run, tmp_path, policy, mode, drill_down):
    # gaps leave the count, mean, variance, score and z of their block rows
    # empty, and a step with no observed block its graph score
    path, data, blocks = gap_run
    model = path / "fit" / "model.json"
    extra = (*policy, "--mode", mode) + (("--drill-down",) if drill_down else ())
    assert run("detect", "--model", model, *data, *extra, "--out-dir", tmp_path) == EXIT_ANOMALIES
    params, _ = load_model(model)
    scores = anomaly.score(blocks, params, mode=mode)
    rule = anomaly.SigmaPolicy(policy[1]) if policy[0] == "--sigma" else anomaly.LogLikPolicy(policy[1])
    report = anomaly.detect(scores, rule, drill_down=drill_down)
    csv_reference.write_scores_csv(scores, report, tmp_path / "want.csv")
    assert (tmp_path / "scores.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("source", ["types file", "simulate"])
def test_type_label_with_colon_is_refused(tmp_path, capsys, source):
    # blocks ("a", "b:c") and ("a:b", "c") would both be named a:b:c
    out = tmp_path / "out"
    if source == "simulate":
        code = run("simulate", "--steps", 2, "--types", "a=2,x:y=3", "--out-dir", out)
    else:
        (tmp_path / "types.csv").write_text("vertex,type\nu,a\nv,x:y\nw,x:y\n")
        (tmp_path / "events.csv").write_text("timestamp,src,dst\n0.5,u,v\n")
        code = run("fit", "--events", tmp_path / "events.csv", "--types", tmp_path / "types.csv",
                   "--out-dir", out)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "type label 'x:y' contains ':'" in err, err
    assert not out.exists()


SIM_DATA = ("--events", "{sim}/events.csv", "--types", "{sim}/types.csv")


@pytest.mark.parametrize(
    "args,files,code,message",
    [
        (("simulate", "--types", "a"), {}, EXIT_USAGE, "bad type spec 'a', expected name=count"),
        (("simulate", "--types", "a=1,a=2"), {}, EXIT_USAGE, "type 'a' given twice"),
        (("simulate", "--types", "a=x"), {}, EXIT_USAGE, "bad vertex count 'x' for type 'a'"),
        (("simulate", "--types", "a=0"), {}, EXIT_USAGE, "type 'a' needs a positive vertex count"),
        (("simulate", "--types", "=3"), {}, EXIT_USAGE, "bad type spec '=3': the type name is empty"),
        (("simulate", "--types", "a=11,a1=1"), {}, EXIT_USAGE, "types 'a' and 'a1' both name vertex 'a10'"),
        (("simulate", "--steps", -1), {}, EXIT_DATA, "steps must be >= 0"),
        (("simulate", "--steps", 2**63 // 9, "--types", "a=3"), {}, EXIT_DATA,
         f"{2**63 // 9} snapshots of 3 vertices are too many to index edges in int64"),
        (("simulate", "--steps", 10**18, "--types", "a=3"), {}, EXIT_DATA,
         f"--steps {10**18} is too many: the ground truth, {10**18} x 1 x 4 floats, "
         "cannot be held in memory"),
        (("simulate", "--steps", 3, "--types", "a=3", "--width", 1e308), {}, EXIT_DATA,
         "--width 1e+308 stamps step 3 at inf, which fit's buckets from origin 0 at that width "
         "do not place in bucket 3"),
        (("simulate", "--steps", 3, "--types", "a=3", "--width", 5e-324), {}, EXIT_DATA,
         "--width 5e-324 stamps step 2 at 1e-323, which fit's buckets from origin 0 at that width "
         "do not place in bucket 2"),
        (("fit", *SIM_DATA, "--t-cap", -1), {}, EXIT_DATA, "bucket cap must be >= 0"),
        (("fit", *SIM_DATA, "--max-iter", 0), {}, EXIT_DATA, "max_iter must be >= 1"),
        (("forecast", "--model", "{model}", *SIM_DATA, "--horizon", 2, "--level", 1), {}, EXIT_DATA,
         "confidence level must be in (0, 1)"),
        (("forecast", "--model", "{model}", *SIM_DATA, "--horizon", 2, "--level", "nan"), {}, EXIT_DATA,
         "confidence level must be in (0, 1)"),
        (("forecast", *SIM_DATA, "--horizon", 2), {}, EXIT_USAGE, "--model is required"),
        (("forecast", "--model", "{model}", *SIM_DATA), {}, EXIT_USAGE, "--horizon is required"),
        (("fit", "--events", "{sim}/events.csv", "--types", "t.csv"), {"t.csv": "vertex,type\na0\n"},
         EXIT_DATA, "t.csv:2: expected 2 columns, got 1"),
        (("fit", "--events", "{sim}/events.csv", "--types", "t.csv"), {"t.csv": "vertex,type\na0,\n"},
         EXIT_DATA, "t.csv:2: empty vertex or type"),
        (("fit", "--events", "{sim}/events.csv", "--types", "t.csv"), {"t.csv": "vertex,type\n"},
         EXIT_DATA, "t.csv: no vertices"),
        (("fit", "--events", "e.csv", "--types", "{sim}/types.csv"), {"e.csv": "ts,src,dst\n0.5,a0,a1\n"},
         EXIT_DATA, "e.csv: expected header 'timestamp,src,dst'"),
        (("forecast", "--model", "m.json", *SIM_DATA, "--horizon", 2), {"m.json": "[]\n"},
         EXIT_DATA, "m.json: not a model file"),
        (("fit", "--events", "e.csv", "--types", "t.csv", "--t-cap", 5),
         {"e.csv": "timestamp,src,dst\n", "t.csv": "vertex,type\nv0,a\n"},
         EXIT_DATA, "no blocks with possible edges to fit"),
        # the one event falls past the cap, so all 20 buckets hold no edge
        (("fit", "--events", "e.csv", "--types", "t.csv", "--t-cap", 20),
         {"e.csv": "timestamp,src,dst\n100.5,a0,a1\n", "t.csv": "vertex,type\na0,a\na1,a\na2,a\nb0,b\nb1,b\n"},
         EXIT_DATA, "no edge to fit: every observed count of every block is 0"),
    ],
    ids=["types-no-count", "types-twice", "types-bad-count", "types-zero-count", "types-empty-name",
         "types-clashing-vertex", "negative-steps", "steps-past-int64-keys", "steps-past-memory",
         "width-past-float", "width-below-float-spacing", "negative-t-cap", "zero-max-iter", "level-1", "level-nan", "no-model",
         "no-horizon", "types-csv-one-column", "types-csv-blank-type", "types-csv-header-only",
         "events-bad-header", "model-list", "no-block", "no-edge"],
)
def test_refused_input_writes_nothing(
    sim_dir, fitted_dir, tmp_path, capsys, monkeypatch, args, files, code, message
):
    monkeypatch.chdir(tmp_path)  # the files are named relative to it, as are their errors
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = {"sim": sim_dir, "model": fitted_dir / "model.json"}
    args = [a.format(**paths) if isinstance(a, str) else a for a in args]
    assert run(*args, "--out-dir", "out") == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def assert_model_commands_are_data_errors(model, sim_dir, tmp_path, capsys):
    data = ("--events", sim_dir / "events.csv", "--types", sim_dir / "types.csv")
    commands = [
        ("fit", "--init-model", model, "--period", 4, *data),
        ("forecast", "--model", model, "--horizon", 3, *data),
        ("detect", "--model", model, *data),
    ]
    for args in commands:
        capsys.readouterr()
        assert run(*args, "--out-dir", tmp_path) == EXIT_DATA, args[0]
        assert capsys.readouterr().err.startswith("error: "), args[0]


def write_checksummed(path, document):
    """Write a model document with a valid checksum over its content."""
    document = {k: v for k, v in document.items() if k != "checksum"}
    document["checksum"] = ingest._checksum(document)
    path.write_text(json.dumps(document))
    return path


def test_degenerate_model_is_data_error(sim_dir, fitted_dir, tmp_path, capsys):
    # a checksummed model whose Sigma0 is negative definite: loading it
    # fails, and every command reports it as a data error
    params, ns = load_model(fitted_dir / "model.json")
    bad = {
        pair: ModelParams(
            d=p.d, q_m=p.q_m, q_s=p.q_s, r=p.r, mu0=p.mu0, Sigma0=-1e6 * np.eye(p.d)
        )
        for pair, p in zip(ns, params)
    }
    save_model(bad, ns, tmp_path / "bad.json")
    assert_model_commands_are_data_errors(tmp_path / "bad.json", sim_dir, tmp_path, capsys)


def test_model_blocks_in_any_order_give_the_same_outputs(sim_dir, fitted_dir, tmp_path, monkeypatch):
    # a model file lists its blocks in reverse (checksum recomputed): it
    # loads as the canonical stack, so every command reads it as the sorted file
    document = json.loads((fitted_dir / "model.json").read_text())
    document["blocks"].reverse()
    for order in ("sorted", "reversed"):
        (tmp_path / order).mkdir()
    (tmp_path / "sorted" / "model.json").write_bytes((fitted_dir / "model.json").read_bytes())
    write_checksummed(tmp_path / "reversed" / "model.json", document)
    params, ns = load_model(tmp_path / "sorted" / "model.json")
    reversed_params, reversed_ns = load_model(tmp_path / "reversed" / "model.json")
    assert list(reversed_ns.items()) == list(ns.items())
    for name in ("d", "q_m", "q_s", "r", "mu0", "Sigma0"):
        np.testing.assert_array_equal(getattr(reversed_params, name), getattr(params, name))
    data = ("--events", sim_dir / "events.csv", "--types", sim_dir / "types.csv")
    commands = [
        ("fit", "--init-model", "model.json", "--period", 4, "--max-iter", 3, *data, "--out-dir", "fit"),
        ("forecast", "--model", "model.json", "--horizon", 3, *data, "--out-dir", "fc"),
        ("detect", "--model", "model.json", *data, "--out-dir", "det"),
        ("detect", "--model", "model.json", "--mode", "smoothed", "--drill-down", *data, "--out-dir", "det-s"),
    ]
    codes = {}
    for order in ("sorted", "reversed"):
        monkeypatch.chdir(tmp_path / order)  # the model and outputs are named relative to it
        codes[order] = [run(*args) for args in commands]
    assert codes["sorted"] == codes["reversed"]
    for out in ("fit", "fc", "det", "det-s"):
        names = sorted(path.name for path in (tmp_path / "sorted" / out).iterdir())
        assert names == sorted(path.name for path in (tmp_path / "reversed" / out).iterdir())
        for name in names:
            want = (tmp_path / "sorted" / out / name).read_bytes()
            assert (tmp_path / "reversed" / out / name).read_bytes() == want, f"{out}/{name}"


@pytest.mark.parametrize(
    "field,value",
    [("sigma0", math.inf), ("mu0", -math.inf), ("q_m", math.nan), ("r", math.inf)],
)
def test_non_finite_model_is_data_error(sim_dir, fitted_dir, tmp_path, capsys, field, value):
    document = json.loads((fitted_dir / "model.json").read_text())
    block = document["blocks"][0]
    if field == "sigma0":
        block["sigma0"][0][0] = value
    elif field == "mu0":
        block["mu0"][1] = value
    else:
        block[field] = value
    model = write_checksummed(tmp_path / "bad.json", document)
    with pytest.raises(ingest.ModelFormatError, match="finite"):
        load_model(model)
    assert_model_commands_are_data_errors(model, sim_dir, tmp_path, capsys)


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(lambda doc: doc.update(blocks=[]), None, id="empty-blocks"),
        pytest.param(lambda doc: doc.update(blocks={"a:a": {}}), None, id="non-list-blocks"),
        pytest.param(lambda doc: doc.update(d=4.0), None, id="float-d"),
        pytest.param(lambda doc: doc.update(d="4"), None, id="string-d"),
        pytest.param(lambda doc: doc.update(blocks=[{"a": "a"}]), None, id="incomplete-block"),
        pytest.param(
            lambda doc: doc["blocks"].append(dict(doc["blocks"][0])), "duplicate block a:a",
            id="duplicate-block",
        ),
        pytest.param(lambda doc: doc["blocks"][0].update(a=1), "type labels must be strings", id="int-label"),
        pytest.param(lambda doc: doc["blocks"][1].update(b=None), "type labels must be strings", id="null-label"),
        pytest.param(lambda doc: doc["blocks"][0].update(n=2.7), "n must be an integer >= 1", id="fractional-n"),
        pytest.param(lambda doc: doc["blocks"][0].update(n=0), "n must be an integer >= 1", id="zero-n"),
        # parameters must be JSON numbers, and a boolean is not one
        pytest.param(lambda doc: doc["blocks"][0].update(q_m="1e-3"), "block 0: q_m must hold JSON numbers", id="string-q_m"),
        pytest.param(lambda doc: doc["blocks"][1].update(q_s=None), "block 1: q_s must hold JSON numbers", id="null-q_s"),
        pytest.param(lambda doc: doc["blocks"][0].update(r=True), "block 0: r must hold JSON numbers", id="bool-r"),
        pytest.param(
            lambda doc: doc["blocks"][0].update(mu0=[str(x) for x in doc["blocks"][0]["mu0"]]),
            "block 0: mu0 must hold JSON numbers", id="string-mu0",
        ),
        pytest.param(
            lambda doc: doc["blocks"][2]["sigma0"][1].__setitem__(1, False),
            "block 2: sigma0 must hold JSON numbers", id="bool-sigma0",
        ),
        pytest.param(
            lambda doc: doc["blocks"][0].update(sigma0=[[0.0] * 3] * 3), "block 0: Sigma0 must be 4x4",
            id="wrong-shape-sigma0",
        ),
        # a smallest eigenvalue near -1e-3, which the filter would only meet steps later
        pytest.param(
            lambda doc: doc["blocks"][1]["sigma0"][1].__setitem__(1, doc["blocks"][1]["sigma0"][1][1] - 1e-3),
            r"block 1: sigma0 of a:b is not positive semidefinite: smallest eigenvalue -0\.000", id="non-psd-sigma0",
        ),
    ],
)
def test_malformed_model_structure_is_data_error(sim_dir, fitted_dir, tmp_path, capsys, edit, message):
    # the checksum is recomputed, so the structure check is the one that fires
    document = json.loads((fitted_dir / "model.json").read_text())
    edit(document)
    model = write_checksummed(tmp_path / "bad.json", document)
    with pytest.raises(ingest.ModelFormatError, match=message):
        load_model(model)
    assert_model_commands_are_data_errors(model, sim_dir, tmp_path, capsys)


def test_key_range_error_names_the_timestamp(tmp_path, capsys):
    # 1e300 seconds is far past the last snapshot int64 edge keys can index
    events = tmp_path / "events.csv"
    events.write_text("timestamp,src,dst\n0.5,a0,a1\n1e300,a0,b0\n")
    types = tmp_path / "types.csv"
    types.write_text("vertex,type\n" + "".join(f"{t}{k},{t}\n" for t in "ab" for k in range(24)))
    code = run("fit", "--events", events, "--types", types, "--out-dir", tmp_path / "out")
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: event at 1e+300 is too late to index edges of 48 vertices in int64 with bucket width 1\n"
    )


class TestTextEncoding:
    """Every file is UTF-8, whatever the locale; an input byte that is
    not UTF-8 is an error naming the file and its line."""

    def test_latin1_events_file_is_data_error(self, sim_dir, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_bytes("timestamp,src,dst\n0.5,a0,a1\n0.5,a0,caf\u00e9\n".encode("latin-1"))
        code = run("fit", "--events", events, "--types", sim_dir / "types.csv", "--out-dir", tmp_path / "out")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {events}:3: not UTF-8 text (byte 0xe9)\n"

    def test_latin1_model_is_data_error(self, sim_dir, fitted_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes((fitted_dir / "model.json").read_bytes().replace(b'"a"', b'"\xe9"', 1))
        data = ("--events", sim_dir / "events.csv", "--types", sim_dir / "types.csv")
        assert run("detect", "--model", model, *data, "--out-dir", tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}:") and err.endswith(": not UTF-8 text (byte 0xe9)\n")

    def test_latin1_config_is_usage_error(self, tmp_path, capsys):
        # like a config that is not JSON
        config = tmp_path / "config.json"
        config.write_bytes(b'{\n  "types": "\xe9=3"\n}\n')
        assert run("simulate", "--config", config, "--out-dir", tmp_path / "out") == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {config}:2: not UTF-8 text (byte 0xe9)\n"


ROOT = Path(__file__).resolve().parents[1]


def run_under_ascii_locale(*args, cwd):
    """The CLI in a child process whose locale encoding is ASCII."""
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C", LANG="C")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "sdsbm.cli", *map(str, args)],
        cwd=cwd, env=env, capture_output=True, timeout=120,
    )


def test_non_ascii_outputs_do_not_depend_on_the_locale(tmp_path, monkeypatch):
    sim = ("simulate", "--types", "\u00e9=3,b=2", "--steps", 6, "--seed", 2, "--out-dir", "sim")
    fit = ("fit", "--events", "sim/events.csv", "--types", "sim/types.csv",
           "--period", 3, "--max-iter", 2, "--out-dir", "fit")
    (tmp_path / "utf8").mkdir()
    (tmp_path / "ascii").mkdir()
    monkeypatch.chdir(tmp_path / "utf8")
    assert run(*sim) == EXIT_OK
    assert run(*fit) == EXIT_MAX_ITER
    for args, code in ((sim, EXIT_OK), (fit, EXIT_MAX_ITER)):
        proc = run_under_ascii_locale(*args, cwd=tmp_path / "ascii")
        assert proc.returncode == code, proc.stderr
    names = ["sim/events.csv", "sim/types.csv", "sim/ground_truth.csv", "sim/run_config.json",
             "fit/model.json", "fit/em_trace.csv", "fit/run_config.json"]
    for name in names:
        assert (tmp_path / "ascii" / name).read_bytes() == (tmp_path / "utf8" / name).read_bytes(), name
    assert "\u00e9:\u00e9" in (tmp_path / "utf8" / "fit" / "em_trace.csv").read_text(encoding="utf-8")


def strict_json(path):
    """A JSON file parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize(
    "command,option,value,code",
    [
        pytest.param("detect", "loglik_threshold", "inf", EXIT_ANOMALIES, id="loglik-inf"),
        pytest.param("detect", "loglik_threshold", "-inf", EXIT_OK, id="loglik-minus-inf"),
        pytest.param("detect", "sigma", "inf", EXIT_OK, id="sigma-inf"),
        pytest.param("fit", "tol", "inf", EXIT_OK, id="tol-inf"),
    ],
)
def test_non_finite_options_are_written_as_strings(sim_dir, fitted_dir, tmp_path, command, option, value, code):
    # "inf" and "-inf" stand in for the numbers RFC 8259 JSON lacks
    flag = f"--{option.replace('_', '-')}={value}"
    if command == "fit":
        args = fit_args(sim_dir, tmp_path, "--max-iter", 3, flag)
    else:
        data = ("--events", sim_dir / "events.csv", "--types", sim_dir / "types.csv")
        args = ("detect", "--model", fitted_dir / "model.json", *data, "--out-dir", tmp_path, flag)
    assert run(*args) == code
    assert strict_json(tmp_path / "run_config.json")[option] == value
    if command == "detect":
        flagged = strict_json(tmp_path / "report.json")["flagged"]
        assert bool(flagged) == (code == EXIT_ANOMALIES)
        assert all(item["threshold"] == value for item in flagged)


class TestConfigHandling:
    def test_unknown_argument_is_usage_error(self):
        assert run("simulate", "--bogus", 1) == EXIT_USAGE

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 10, "seed": 3, "types": "a=6,b=5"}))
        out = tmp_path / "out"
        code = run(
            "simulate", "--config", cfg, "--steps", 5, "--period", 3,
            "--out-dir", out,
        )
        assert code == EXIT_OK
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["steps"] == 5  # CLI wins
        assert resolved["seed"] == 3  # config wins over default
        rows = read_rows(out / "ground_truth.csv")
        assert {r["t"] for r in rows} == {"1", "2", "3", "4", "5"}

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bananas": 1}))
        assert run("simulate", "--config", cfg, "--out-dir", tmp_path) == EXIT_USAGE

    @pytest.mark.parametrize("text", ["{", "[1]", ""])
    def test_unreadable_config_is_usage_error_naming_the_file(self, tmp_path, capsys, text):
        # malformed JSON and JSON that is not an object alike
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run("fit", "--config", cfg, "--out-dir", out) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,config,key",
        [
            ("simulate", {"blocks": [1]}, "'blocks'"),
            ("simulate", {"blocks": {"a:a": 5}}, "'a:a'"),
            ("simulate", {"blocks": {"a:a": {"biass": 0.3}}}, "'biass'"),
            ("simulate", {"blocks": {"a:c": {"bias": 0.3}}}, "'a:c'"),
            ("fit", {"blocks": {}}, "'blocks'"),
            ("forecast", {"blocks": {}}, "'blocks'"),
            ("detect", {"blocks": {}}, "'blocks'"),
            # a block's value is checked against the command-wide option
            ("simulate", {"blocks": {"a:b": {"q_m": "1e-3"}}}, "'a:b' key 'q_m' takes a number"),
            ("simulate", {"blocks": {"a:b": {"bias": True}}}, "'a:b' key 'bias' takes a number"),
            ("simulate", {"blocks": {"a:b": {"season_amplitude": [1]}}}, "'a:b' key 'season_amplitude'"),
            ("simulate", {"blocks": {"a:b": {"r": None}}}, "'a:b' key 'r' takes a number"),
            # z has one vertex, so z:z is no block: its override would go unused
            ("simulate", {"blocks": {"z:z": {"bias": 0.3}}}, "'z:z'"),
        ],
    )
    def test_bad_blocks_config_is_usage_error(self, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = run(command, "--config", cfg, "--types", "a=6,b=5,z=1" if command == "simulate"
                   else tmp_path / "types.csv", "--out-dir", out)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,config",
        [
            ("fit", {"fix_r_zero": "no"}),
            ("fit", {"paper_default_init": 1}),
            ("detect", {"drill_down": "yes"}),
            ("fit", {"tol": None}),
            ("fit", {"max_iter": None}),
            ("fit", {"max_iter": True}),
            ("fit", {"period": [7]}),
            ("fit", {"init_model": 5}),
            ("fit", {"events": 1.5}),
            ("simulate", {"steps": None}),
            ("simulate", {"types": 5}),
            ("forecast", {"level": None}),
            ("detect", {"mode": False}),
            # an integer option takes a JSON integer, not a fractional number
            ("fit", {"max_iter": 2.9}),
            ("fit", {"period": 7.5}),
            ("fit", {"t_cap": 10.0}),
            ("forecast", {"horizon": 3.5}),
            ("simulate", {"seed": 1.5}),
            ("simulate", {"steps": 1e2}),
            # a value outside the option's choices
            ("detect", {"mode": "bogus"}),
            ("fit", {"missing_policy": "bogus"}),
            # an integer beyond the range of a float
            ("fit", {"tol": 10**400}),
        ],
    )
    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, capsys, command, config):
        # a flag takes a JSON boolean, an integer option a non-boolean
        # integer, a number a non-boolean number, a path or name a string
        # and an option with choices one of them; null only where the
        # default is null
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out-dir", out) == EXIT_USAGE
        err = capsys.readouterr().err
        [key] = config
        assert err.startswith(f"error: config key {key!r} takes ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_config_null_where_the_default_is_null(self, sim_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_cap": None, "init_model": None, "fix_r_zero": False, "max_iter": 2}))
        code = run(*fit_args(sim_dir, tmp_path / "out", "--config", cfg))
        assert code == EXIT_MAX_ITER
        resolved = json.loads((tmp_path / "out" / "run_config.json").read_text())
        assert resolved["fix_r_zero"] is False and resolved["t_cap"] is None

    def test_block_overrides_reach_the_generator(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"blocks": {"a:b": {"bias": 0.1, "season_amplitude": 0.0}}}))
        out = tmp_path / "out"
        code = run(
            "simulate", "--config", cfg, "--steps", 3, "--types", "a=6,b=5",
            "--bias", 0.9, "--r", 0.0, "--q-m", 0.0, "--q-s", 0.0, "--out-dir", out,
        )
        assert code == EXIT_OK
        e = {r["block"]: float(r["e"]) for r in read_rows(out / "ground_truth.csv")}
        assert e["a:b"] == pytest.approx(0.1) and e["a:a"] > 0.7

    def test_run_config_records_seed(self, tmp_path):
        simulate_small(tmp_path, seed=123)
        resolved = json.loads((tmp_path / "run_config.json").read_text())
        assert resolved["seed"] == 123
        assert resolved["command"] == "simulate"

    def test_removed_seed_and_period_options_are_usage_errors(self, sim_dir, fitted_dir, tmp_path, capsys):
        # fit, forecast and detect use no randomness, and forecast and
        # detect take the period d from the model
        data = ("--events", sim_dir / "events.csv", "--types", sim_dir / "types.csv")
        model = ("--model", fitted_dir / "model.json")
        commands = {
            "fit": ("fit", *data, "--period", 4, "--max-iter", 2),
            "forecast": ("forecast", *model, *data, "--horizon", 3),
            "detect": ("detect", *model, *data),
        }
        removed = [("fit", "seed"), ("forecast", "seed"), ("forecast", "period"),
                   ("detect", "seed"), ("detect", "period")]
        for k, (command, key) in enumerate(removed):
            flag, cfg = f"--{key}", tmp_path / f"cfg{k}.json"
            cfg.write_text(json.dumps({key: 7}))
            for extra, message in [((flag, 7), f"unrecognized arguments: {flag} 7"),
                                   (("--config", cfg), f"unknown config keys: [{key!r}]")]:
                out = tmp_path / f"out{k}"
                assert run(*commands[command], *extra, "--out-dir", out) == EXIT_USAGE
                err = capsys.readouterr().err
                assert err.startswith("error: ") and message in err, err
                assert not out.exists()


def _table_options():
    return [(command, key) for command, options in OPTIONS.items()
            for key, option in options.items() if option.kind is not dict]


@pytest.mark.parametrize("command,key", _table_options())
def test_flag_and_config_key_resolve_alike(command, key):
    # the same value given as a flag and as a config key: no command runs
    option = OPTIONS[command][key]
    value = option.choices[-1] if option.choices else {bool: True, int: 3, float: 2, str: "x"}[option.kind]
    from_config = _resolve(OPTIONS[command], {key: value}, {})[key]
    assert type(from_config) is option.kind and from_config != option.default
    for flag in filter(None, [f"--{key.replace('_', '-')}", option.short]):
        args = vars(build_parser().parse_args([command, flag, *([] if option.kind is bool else [str(value)])]))
        del args["command"], args["config"]
        from_flag = _resolve(OPTIONS[command], {}, args)[key]
        assert from_flag == from_config and type(from_flag) is type(from_config)


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for line in readme.replace("\\\n", " ").splitlines() if line.startswith("sdsbm ")]
    assert {shlex.split(line)[1] for line in lines} == set(OPTIONS)
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])  # a UsageError fails the test
