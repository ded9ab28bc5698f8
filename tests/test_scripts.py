"""The experiment scripts run end to end on small arguments."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_detector_calibration():
    proc = run_script("detector_calibration.py", "--steps", 500, "--trials", 10)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("null calibration: ")
    assert "over 2500 block-steps" in lines[0]
    assert lines[1].startswith("power: 6-sigma one-step shift flagged")
    assert lines[1].endswith("/10 trials")


def test_measurement_noise_contrast(tmp_path):
    proc = run_script("measurement_noise_contrast.py", "--max-iter", 10, "--out-dir", tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("true params: q_m = q_s = 1e-07, r = 0.001")
    assert [line.split(":")[0].strip() for line in lines[1:]] == ["free", "pinned"]
    for label in ("free", "pinned"):
        with open(tmp_path / f"forecast_{label}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 * 7  # default horizon: six periods of d = 7
        assert [int(r["t"]) for r in rows] == list(range(281, 281 + 42))
        for r in rows:
            assert float(r["lower"]) <= float(r["mean"]) <= float(r["upper"])
