import csv
import json
import math
import time

import numpy as np
import pytest

from sdsbm import ingest, kalman
from sdsbm.cli import (
    EXIT_ANOMALIES,
    EXIT_DATA,
    EXIT_MAX_ITER,
    EXIT_OK,
    EXIT_USAGE,
    _z_quantile,
    main,
)
from sdsbm.graph_model import extract_block_series
from sdsbm.ingest import (
    EMPTY_GRAPH,
    MISSING_OBSERVATION,
    BucketingConfig,
    bucketize,
    load_model,
    parse_inputs,
    save_model,
)
from sdsbm.ssm import ModelParams


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
    with open(path) as fh:
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

    def test_default_scenario_is_fast(self, tmp_path):
        start = time.perf_counter()
        assert run("simulate", "--seed", 1, "--out-dir", tmp_path) == EXIT_OK
        assert time.perf_counter() - start < 5.0
        rows = read_rows(tmp_path / "ground_truth.csv")
        assert len(rows) == 280 * 3  # three blocks over the default horizon

    def test_ground_truth_matches_events(self, tmp_path):
        simulate_small(tmp_path)
        events, typing = parse_inputs(tmp_path / "events.csv", tmp_path / "types.csv")
        net = bucketize(events, typing, BucketingConfig(origin=0.0, width=1.0, T=50))
        by_pair = {s.pair: s for s in extract_block_series(net)}
        for row in read_rows(tmp_path / "ground_truth.csv"):
            pair = tuple(row["block"].split(":"))
            assert by_pair[pair].counts[int(row["t"]) - 1] == float(row["w"])

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

    def test_nan_tol_is_data_error(self, sim_dir, tmp_path, capsys):
        # a NaN tolerance never stops EM, so every block would run to the cap
        assert run(*fit_args(sim_dir, tmp_path, "--tol", "nan")) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: tol must be non-negative")

    def test_missing_events_flag_is_usage_error(self, tmp_path):
        assert run("fit", "--types", "x.csv", "--out-dir", tmp_path) == EXIT_USAGE

    def test_unreadable_events_is_data_error(self, tmp_path, sim_dir):
        code = run(
            "fit",
            "--events", tmp_path / "nope.csv",
            "--types", sim_dir / "types.csv",
            "--out-dir", tmp_path,
        )
        assert code == EXIT_DATA


@pytest.fixture(scope="module")
def fitted_dir(sim_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("fit")
    code = run(*fit_args(sim_dir, path, "--max-iter", 600, "--tol", 1e-5))
    assert code == EXIT_OK
    return path


class TestForecast:
    def test_gaussian_quantile(self):
        assert _z_quantile(0.95) * math.sqrt(25.0) == pytest.approx(9.79982, abs=1e-5)

    @pytest.mark.filterwarnings("ignore::sdsbm.ssm.NormalApproximationWarning")
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
        params, _ = load_model(fitted_dir / "model.json")
        events, typing = parse_inputs(sim_dir / "events.csv", sim_dir / "types.csv")
        net = bucketize(events, typing, BucketingConfig(origin=0.0, width=1.0))
        blocks = {s.pair: s for s in extract_block_series(net)}
        rows = read_rows(tmp_path / "forecast.csv")
        for row in rows:
            pair = tuple(row["block"].split(":"))
            p = params[pair]
            series = blocks[pair]
            seq = kalman.filter(series, p)
            fc = kalman.forecast(seq.filtered(seq.T), p.state_space(series.n), 1)
            assert float(row["mean"]) == fc.count_mean[0]
            assert float(row["variance"]) == fc.total_var[0]
            assert int(row["t"]) == series.T + 1

    @pytest.mark.filterwarnings("ignore::sdsbm.ssm.NormalApproximationWarning")
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

    def test_period_contradicting_model_is_data_error(self, sim_dir, fitted_dir, tmp_path):
        code = run(
            *self.detect_args(sim_dir, fitted_dir, tmp_path, "--period", 9)
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
    # a checksummed model whose Sigma0 is negative definite: the filter
    # and EM fail inside, and every command reports it as a data error
    params, ns = load_model(fitted_dir / "model.json")
    bad = {
        pair: ModelParams(
            d=p.d, q_m=p.q_m, q_s=p.q_s, r=p.r, mu0=p.mu0, Sigma0=-1e6 * np.eye(p.d)
        )
        for pair, p in params.items()
    }
    save_model(bad, ns, tmp_path / "bad.json")
    assert_model_commands_are_data_errors(tmp_path / "bad.json", sim_dir, tmp_path, capsys)


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
    "change",
    [
        pytest.param({"blocks": []}, id="empty-blocks"),
        pytest.param({"blocks": {"a:a": {}}}, id="non-list-blocks"),
        pytest.param({"d": 4.0}, id="float-d"),
        pytest.param({"d": "4"}, id="string-d"),
        pytest.param({"blocks": [{"a": "a"}]}, id="incomplete-block"),
    ],
)
def test_malformed_model_structure_is_data_error(sim_dir, fitted_dir, tmp_path, capsys, change):
    document = json.loads((fitted_dir / "model.json").read_text())
    model = write_checksummed(tmp_path / "bad.json", {**document, **change})
    with pytest.raises(ingest.ModelFormatError):
        load_model(model)
    assert_model_commands_are_data_errors(model, sim_dir, tmp_path, capsys)


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

    def test_run_config_records_seed(self, tmp_path):
        simulate_small(tmp_path, seed=123)
        resolved = json.loads((tmp_path / "run_config.json").read_text())
        assert resolved["seed"] == 123
        assert resolved["command"] == "simulate"
