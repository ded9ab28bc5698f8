"""Memory bounds of the event path and of EM: one int64 key per edge
from the events file or the generator to block counts, with other
per-edge arrays built one chunk at a time, and an E-step that keeps its
state covariances as loop variables.

The peaks are taken with ``tracemalloc``, which sees numpy's array
buffers as well as Python objects, so they are deterministic for one
numpy version.  The end-to-end bound reads the CLI's resident set size.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sdsbm import kalman
from sdsbm.em import EmConfig, default_init, em_fit
from sdsbm.generator import GenParams, default_state, generate_network
from sdsbm.graph_model import BlockStack, DynamicNetwork, VertexTyping, extract_block_series
from sdsbm.ingest import BucketingConfig, parse_inputs

EVENTS = 100_000
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
    want = DynamicNetwork.from_edges(net.typing, int(t.max()), t, src, dst)
    np.testing.assert_array_equal(net.keys, want.keys)
    assert peak / EVENTS < 24, f"{peak / EVENTS:.1f} bytes per event"


def dense_network_args(seed):
    """Generator arguments for about 250k edges: 100 vertices of two
    types, every block at density 0.5, over 100 steps."""
    ids = tuple(f"{'ab'[k % 2]}{k}" for k in range(100))
    typing = VertexTyping(vertex_ids=ids, type_of={v: v[0] for v in ids})
    params = GenParams(d=3, q_m=0.0, q_s=0.0, r=0.0, init=default_state(3, 0.5))
    return {pair: params for pair in typing.pairs()}, typing, 100, np.random.default_rng(seed)


def test_edge_keys_are_built_in_place():
    # the network's keys take 8 bytes per edge, and the per-step arrays
    # they are joined from as much again; per-edge t, u and v arrays, or
    # packing the keys out of place, would add 24 bytes per edge or more
    (net, _), peak = traced_peak(generate_network, *dense_network_args(6))
    edges = net.keys.size
    assert edges > 200_000
    assert peak / edges < 24, f"{peak / edges:.1f} bytes per edge"


def test_block_extraction_walks_the_keys_in_chunks():
    # the (T, B) counts are all that grows with the input besides one
    # chunk's arrays; whole per-edge t, u, v or block-id arrays would
    # take 8 bytes per edge each
    net, _ = generate_network(*dense_network_args(7))
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
    # about 300k edges; the bound leaves room for the allocator, not for
    # a second whole per-edge array of any kind
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
        assert per_edge < 32, f"{command}: {per_edge:.1f} bytes per edge above the import floor"


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


def test_em_fit_peak_is_a_few_e_steps():
    blocks = many_blocks()
    _, peak = traced_peak(em_fit, blocks, default_init(blocks, 7), EmConfig(max_iter=5, tol=0))
    assert peak < 5 * 2**20, f"{peak / 2**20:.2f} MiB"
