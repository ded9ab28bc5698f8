"""Memory bounds of the event path and of EM: parsing holds the strings
of one chunk of rows at a time, the edge keys are built in place, and
the E-step keeps its state covariances as loop variables.

The peaks are taken with ``tracemalloc``, which sees numpy's array
buffers as well as Python objects, so they are deterministic for one
numpy version.
"""

import tracemalloc

import numpy as np

from sdsbm import kalman
from sdsbm.em import EmConfig, default_init, em_fit
from sdsbm.graph_model import BlockStack, DynamicNetwork, VertexTyping
from sdsbm.ingest import parse_inputs

EVENTS = 100_000


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
    # the result's three columns take 24 bytes per event, and the
    # chunks they are joined from as much again; the rows' strings, at
    # about 200 bytes per event, must not all be held at once
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
    (parsed, _), peak = traced_peak(parse_inputs, events, types)
    assert len(parsed) == EVENTS
    np.testing.assert_array_equal(parsed.timestamp, stamps)
    assert peak / EVENTS < 64, f"{peak / EVENTS:.1f} bytes per event"


def test_edge_keys_are_built_in_place():
    # the result's three edge arrays take 24 bytes per kept edge; the
    # key is one more array, and the temporaries of packing it out of
    # place would add 16 bytes per edge or more
    rng = np.random.default_rng(6)
    V, T = 1000, 100
    typing = VertexTyping(
        vertex_ids=tuple(map(str, range(V))), type_of={str(k): "ab"[k % 2] for k in range(V)}
    )
    t = rng.integers(1, T + 1, EVENTS)
    i = rng.integers(0, V, EVENTS)
    j = (i + rng.integers(1, V, EVENTS)) % V
    t[::10], i[::10], j[::10] = t[1::10], j[1::10], i[1::10]  # a tenth are reversed repeats
    net, peak = traced_peak(DynamicNetwork.from_edges, typing, T, t, i, j)
    key = np.unique((t * V + np.minimum(i, j)) * V + np.maximum(i, j))
    np.testing.assert_array_equal(net.edge_t, key // (V * V))
    np.testing.assert_array_equal(net.edge_u, key // V % V)
    np.testing.assert_array_equal(net.edge_v, key % V)
    assert peak / EVENTS < 36, f"{peak / EVENTS:.1f} bytes per edge"


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
