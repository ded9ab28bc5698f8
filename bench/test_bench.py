"""Tests of the benchmark's own helpers: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from run import END_TO_END  # noqa: E402
from sdsbm.ingest import save_model  # noqa: E402
from sdsbm.ssm import ModelParams  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def span(id_, name, start, end, parent=None, counts=None):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "run": "r", "counts": counts or {}}


class TestSpanArithmetic:
    def test_self_time_subtracts_children(self):
        spans = [
            span(0, "cli.fit", 0.0, 10.0),
            span(1, "em.fit", 1.0, 7.0, parent=0),
            span(2, "em.e_step", 1.5, 4.0, parent=1),
            span(3, "em.e_step", 4.0, 6.0, parent=1),
            span(4, "kalman.smooth", 2.0, 3.0, parent=2),
        ]
        selfs = tracer.self_times(spans)
        assert selfs == pytest.approx({0: 4.0, 1: 1.5, 2: 1.5, 3: 2.0, 4: 1.0})

    def test_overlapping_children_counted_once(self):
        spans = [span(0, "a", 0.0, 5.0), span(1, "b", 1.0, 3.0, 0), span(2, "c", 2.0, 4.0, 0)]
        assert tracer.self_times(spans)[0] == pytest.approx(2.0)

    def test_layer_totals_skip_nested_same_layer(self):
        spans = [
            span(0, "kalman.filter", 0.0, 4.0, counts={"steps": 10}),
            span(1, "kalman.filter", 1.0, 3.0, parent=0, counts={"steps": 10}),
            span(2, "kalman.filter", 5.0, 6.0, counts={"steps": 5}),
        ]
        t = tracer.layer_totals(spans)["kalman.filter"]
        assert t["total"] == pytest.approx(5.0)
        assert t["self"] == pytest.approx(5.0)
        assert t["calls"] == 3
        assert t["counts"] == {"steps": 15}

    def test_per_layer_metrics_ratios_and_absent_layers(self):
        totals = tracer.merge_totals([
            tracer.layer_totals([span(0, "em.fit", 0.0, 2.0, counts={"iterations": 40})]),
            tracer.layer_totals([span(0, "ingest.parse", 0.0, 0.5, counts={"events": 1000})]),
        ])
        m = tracer.per_layer_metrics(totals)
        assert m["em.ms_per_iter"] == (pytest.approx(50.0), "ms/iter")
        assert m["ingest.parse_us_per_event"] == (pytest.approx(500.0), "us/event")
        assert m["kalman.smooth_s"] == (0.0, "s")
        assert m["kalman.smooth_us_per_step"] == (0.0, "us/step")


def test_summary_median_p90_and_count():
    assert stats.summary([5.0, 1.0, 3.0, 2.0, 4.0]) == {"median": 3.0, "p90": pytest.approx(4.6), "n": 5}
    assert stats.summary([1.0, 2.0, 3.0, 4.0])["median"] == 2.5
    assert stats.summary([2.0]) == {"median": 2.0, "p90": 2.0, "n": 1}


def write_model(path):
    p = ModelParams(d=3, q_m=1e-7, q_s=2e-7, r=1e-3, mu0=np.array([0.5, 0.1, -0.1]),
                    Sigma0=0.01 * np.eye(3))
    save_model({("a", "a"): p, ("a", "b"): p}, {("a", "a"): 6, ("a", "b"): 12}, path)


def write_forecast(path, variances, blocks=("a:a",), steps=10):
    lines = ["t,block,mean,variance,lower,upper"]
    for block in blocks:
        for k, v in enumerate(variances):
            lines.append(f"{steps + k + 1},{block},5.0,{v},{5.0 - 2 * v ** 0.5},{5.0 + 2 * v ** 0.5}")
    path.write_text("\n".join(lines) + "\n")


class TestChecks:
    def test_model_reloads(self, tmp_path):
        write_model(tmp_path / "model.json")
        checks.check_model(tmp_path / "model.json", {"a:a": 6, "a:b": 12})
        with pytest.raises(checks.CheckFailure):
            checks.check_model(tmp_path / "model.json", {"a:a": 6, "a:b": 12, "b:b": 1})

    def test_truncated_model_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        write_model(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(checks.CheckFailure, match="does not reload"):
            checks.check_model(path, {"a:a": 6, "a:b": 12})

    def test_forecast_accepts_phase_dips(self, tmp_path):
        # period 2: the variance may dip between phases but grows at each phase
        write_forecast(tmp_path / "f.csv", [4.0, 3.0, 4.5, 3.5, 5.0, 4.0])
        checks.check_forecast(tmp_path / "f.csv", {"a:a": 6}, 6, 10, 2)

    def test_forecast_with_shrinking_variance_rejected(self, tmp_path):
        write_forecast(tmp_path / "f.csv", [4.0, 3.0, 3.9, 3.5, 5.0, 4.0])
        with pytest.raises(checks.CheckFailure, match="shrinks"):
            checks.check_forecast(tmp_path / "f.csv", {"a:a": 6}, 6, 10, 2)

    def test_forecast_row_count_and_bounds(self, tmp_path):
        write_forecast(tmp_path / "f.csv", [1.0, 2.0])
        with pytest.raises(checks.CheckFailure, match="rows"):
            checks.check_forecast(tmp_path / "f.csv", {"a:a": 6, "a:b": 12}, 2, 10, 1)
        (tmp_path / "g.csv").write_text("t,block,mean,variance,lower,upper\n11,a:a,5,1,6,7\n")
        with pytest.raises(checks.CheckFailure, match="order"):
            checks.check_forecast(tmp_path / "g.csv", {"a:a": 6}, 1, 10, 1)

    def test_scores_row_count(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("t,scope\n" + "1,block\n1,block\n1,graph\n" * 4)
        checks.check_scores(path, 4, 2)
        with pytest.raises(checks.CheckFailure):
            checks.check_scores(path, 5, 2)


    def test_fit_quality_applies_the_em_stopping_test(self, tmp_path):
        # a:a stalls on its last iteration (converged even at a cap of 3),
        # a:b still improves, b:b ran one iteration only.
        path = tmp_path / "em_trace.csv"
        path.write_text("block,iter,loglik,q_m,q_s,r\n"
                        "a:a,1,-10.0,0,0,0\na:a,2,-9.0,0,0,0\na:a,3,-8.999999,0,0,0\n"
                        "a:b,1,-6.0,0,0,0\na:b,2,-5.5,0,0,0\nb:b,1,-1.0,0,0,0\n")
        loglik, converged = checks.fit_quality(path)
        assert loglik == pytest.approx(-15.499999)
        assert converged == pytest.approx(1 / 3)

    def test_forecast_quality(self, tmp_path):
        write_forecast(tmp_path / "f.csv", [1.0, 1.0])  # band 3..7 around mean 5
        (tmp_path / "g.csv").write_text("t,block,m,s,e,w\n10,a:a,0,0,0,99\n"
                                        "11,a:a,0,0,0,6\n12,a:a,0,0,0,8\n")
        cov_err, mae = checks.forecast_quality(tmp_path / "f.csv", tmp_path / "g.csv", 10)
        assert cov_err == pytest.approx(0.45) and mae == pytest.approx(2.0)


def test_workload_blocks():
    assert WORKLOADS["readme"].blocks() == {"a:a": 496, "a:b": 512, "b:b": 120}
    many = WORKLOADS["many-blocks"].blocks()
    assert len(many) == 78 and set(many.values()) == {28, 64}


class TestTracer:
    def test_missing_function_reported_absent(self):
        module = types.ModuleType("bench_fake_module")
        module.present = lambda x: x + 1
        sys.modules[module.__name__] = module
        try:
            t = tracer.Tracer("run-1")
            t.install([
                (module.__name__, "present", "layer.present", lambda a, r: {"n": r}),
                (module.__name__, "removed", "layer.removed", None),
                ("bench_no_such_module", "fn", "layer.gone", None),
            ])
            assert module.present(2) == 3
        finally:
            del sys.modules[module.__name__]
        assert t.absent == ["bench_fake_module.removed", "bench_no_such_module.fn"]
        assert [(s["name"], s["counts"], s["run"]) for s in t.spans] == [
            ("layer.present", {"n": 3}, "run-1")
        ]

    def test_span_closes_when_the_call_raises(self):
        t = tracer.Tracer("r")

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            t.wrap(boom, "layer")()
        assert t.spans[0]["end"] is not None and t._open == []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    layer_units = {n: u for n, (_, u) in tracer.per_layer_metrics({}).items()}
    layer_units["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
