"""Memory bounds of the event path and of EM: one int64 key per edge
from the events file to block counts, with other per-edge arrays built
one chunk at a time, a generator that holds one snapshot's edges at a
time, an E-step that keeps its state covariances as loop variables and
an r-step that scans its grid a few points at a time.

The peaks are taken with ``tracemalloc``, which sees numpy's array
buffers as well as Python objects, so they are deterministic for one
numpy version.  The end-to-end bound reads the CLI's resident set size.
"""

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sdsbm import kalman
from sdsbm.em import EmConfig, default_init, em_fit, m_step_r
from sdsbm.generator import generate_network, seasonal_state
from sdsbm.graph_model import BlockStack, VertexTyping, extract_block_series
from sdsbm.ingest import BucketingConfig, parse_inputs

from conftest import generated_network, known_start, network_of_edges

EVENTS = 100_000
# the CLI's peak RSS above the import floor, per edge of its events file:
# room for the allocator, not for a second whole per-edge array of any kind
CLI_BYTES_PER_EDGE = 32
ROOT = Path(__file__).resolve().parents[1]


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_parse_peak_tracks_numeric_columns(tmp_path):
    # the network's keys take 8 bytes per event, and the chunks they are
    # joined from as much again; the rows' strings, at about 200 bytes
    # per event, and whole timestamp or endpoint columns must not be held
    rng = np.random.default_rng(5)
    V = 200
    types = tmp_path / "types.csv"
    types.write_text("vertex,type\n" + "".join(f"v{k},{'ab'[k % 2]}\n" for k in range(V)))
    src = rng.integers(0, V, EVENTS)
    dst = (src + rng.integers(1, V, EVENTS)) % V
    stamps = np.sort(rng.uniform(0, 86_400 * 140, EVENTS))
    events = tmp_path / "events.csv"
    events.write_text(
        "timestamp,src,dst\n"
        + "".join(f"{ts!r},v{u},v{w}\n" for ts, u, w in zip(stamps.tolist(), src, dst))
    )
    config = BucketingConfig(origin=0.0, width=60.0)
    net, peak = traced_peak(parse_inputs, events, types, config)
    t = np.floor(stamps / 60.0) + 1
    want = network_of_edges(net.typing, int(t.max()), t, src, dst)
    np.testing.assert_array_equal(net.keys, want.keys)
    assert peak / EVENTS < 24, f"{peak / EVENTS:.1f} bytes per event"


def dense_network_args(seed):
    """Generator arguments for about 250k edges: 100 vertices of two
    types, every block at density 0.5, over 100 steps."""
    ids = tuple(f"{'ab'[k % 2]}{k}" for k in range(100))
    typing = VertexTyping({v: v[0] for v in ids})
    params = known_start(0.0, 0.0, 0.0, seasonal_state(3, 0.5, np.zeros(3))).take([0] * len(typing.blocks()[0]))
    return params, typing, 100, np.random.default_rng(seed)


def test_generator_holds_one_snapshot():
    # the blocks' pair keys and their sorting order take 16 bytes per
    # possible pair, about 32 per edge of a snapshot at density 0.5; the
    # whole network's keys would take 8 bytes per edge of all 100
    # snapshots, about 800 per edge of the largest
    args = dense_network_args(6)
    edges = largest = 0

    def drain():
        nonlocal edges, largest
        for snapshot in generate_network(*args):
            edges += snapshot.keys.size
            largest = max(largest, snapshot.keys.size)

    _, peak = traced_peak(drain)
    assert edges > 200_000
    assert peak / largest < 100, f"{peak / largest:.1f} bytes per edge of the largest snapshot"


def test_block_extraction_walks_the_keys_in_chunks():
    # the (T, B) counts are all that grows with the input besides one
    # chunk's arrays; whole per-edge t, u, v or block-id arrays would
    # take 8 bytes per edge each
    net, *_ = generated_network(*dense_network_args(7))
    stack, peak = traced_peak(extract_block_series, net)
    assert stack.counts.sum() == net.keys.size
    assert peak / net.keys.size < 4, f"{peak / net.keys.size:.1f} bytes per edge"


# Runs its arguments as a child and prints the child's exit code and peak
# RSS.  A child forked from a large process (pytest, say) would report
# that process's RSS from before its exec, so the children are started
# from this small one instead.
RSS_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def max_rss_kib(*args, cwd):
    """The peak resident set size of ``python *args`` run in ``cwd``, in KiB."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", RSS_LAUNCHER, sys.executable, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    code, kib = map(int, proc.stdout.split())
    assert code in (0, 4), proc.stderr
    return kib


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_cli_peak_rss_per_edge(tmp_path):
    # about 300k edges
    floor = max_rss_kib("-c", "import sdsbm.cli, numpy.random", cwd=tmp_path)
    simulate = max_rss_kib("-m", "sdsbm.cli", "simulate", "--seed", "3", "--steps", "210",
                           "--types", "a=40,b=30", "--out-dir", "sim", cwd=tmp_path)
    fit = max_rss_kib("-m", "sdsbm.cli", "fit", "--events", "sim/events.csv", "--types",
                      "sim/types.csv", "--max-iter", "1", "--out-dir", "fit", cwd=tmp_path)
    with open(tmp_path / "sim" / "events.csv", "rb") as fh:
        edges = sum(1 for _ in fh) - 1
    assert edges > 250_000
    for command, kib in (("simulate", simulate), ("fit", fit)):
        per_edge = (kib - floor) * 1024 / edges
        assert per_edge < CLI_BYTES_PER_EDGE, f"{command}: {per_edge:.1f} bytes per edge above the import floor"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_simulate_writes_a_large_snapshot_a_chunk_at_a_time(tmp_path):
    # three snapshots of about 120k edges each: this run peaks about 23
    # bytes per edge above the import floor, mostly the generator's
    # per-pair arrays; writing each snapshot's rows as one text raised
    # that to about 43
    floor = max_rss_kib("-c", "import sdsbm.cli, numpy.random", cwd=tmp_path)
    kib = max_rss_kib("-m", "sdsbm.cli", "simulate", "--seed", "3", "--steps", "3",
                      "--types", "a=300,b=300", "--out-dir", "sim", cwd=tmp_path)
    with open(tmp_path / "sim" / "events.csv", "rb") as fh:
        next(fh)
        per_snapshot = Counter(line.split(b",", 1)[0] for line in fh)
    assert len(per_snapshot) == 3 and min(per_snapshot.values()) >= 50_000
    per_edge = (kib - floor) * 1024 / sum(per_snapshot.values())
    assert per_edge < CLI_BYTES_PER_EDGE, f"{per_edge:.1f} bytes per edge above the import floor"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_simulate_rss_does_not_grow_with_steps(tmp_path):
    # simulate holds one snapshot's edges and O(B T) numbers of ground
    # truth: four times the steps (about 1.2M edges against 300k) must not
    # raise its peak RSS above the import floor by more than 1 MB
    floor = max_rss_kib("-c", "import sdsbm.cli, numpy.random", cwd=tmp_path)
    above = [
        max_rss_kib("-m", "sdsbm.cli", "simulate", "--seed", "3", "--steps", str(steps),
                    "--types", "a=40,b=30", "--out-dir", f"sim{steps}", cwd=tmp_path) - floor
        for steps in (210, 840)
    ]
    assert above[1] - above[0] < 1024, f"{above} KiB above the import floor"


def many_blocks():
    """78 blocks, the type pairs of 12 types of 8 vertices (n = 28 within
    a type, 64 between), over T = 28 steps of a weekly season."""
    rng = np.random.default_rng(7)
    types = "abcdefghijkl"
    pairs = tuple((a, b) for i, a in enumerate(types) for b in types[i:])
    n = np.array([28 if a == b else 64 for a, b in pairs])
    density = 0.5 + 0.1 * np.sin(2 * np.pi * np.arange(28) / 7)
    return BlockStack(pairs, n.astype(float), rng.binomial(n[:, None], density).astype(float))


def test_e_step_holds_no_per_step_covariances():
    # the E-step is one filter and one smoother pass.  One (B, T, d, d)
    # float array takes 0.82 MiB here; storing a handful of per-step
    # covariances would take several MiB
    blocks = many_blocks()
    params = default_init(blocks, 7)
    _, peak = traced_peak(lambda: kalman.smooth(kalman.filter(blocks, params)))
    assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_r_step_scans_the_grid_in_chunks():
    # at B = 300, T = 1400 one (B, T) float array takes 3.2 MiB; a
    # one-shot scan of the 30-point grid held about three (30, B, T) ones
    rng = np.random.default_rng(3)
    B, T = 300, 1400
    n = rng.integers(6, 2001, B).astype(float)
    p = rng.uniform(0.05, 0.95, (B, T))
    u = n[:, None] * p * (1 - p)
    quad = (u + n[:, None] ** 2 * 1e-4) * np.exp(rng.normal(0, 0.3, (B, T)))
    quad[:, ::7] = np.nan
    r, peak = traced_peak(m_step_r, quad, u, n)
    assert (r > 0).all()
    assert peak < 100 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_em_fit_peak_is_a_few_e_steps():
    blocks = many_blocks()
    _, peak = traced_peak(em_fit, blocks, default_init(blocks, 7), EmConfig(max_iter=5, tol=0))
    assert peak < 5 * 2**20, f"{peak / 2**20:.2f} MiB"
