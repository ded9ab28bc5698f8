"""Memory bounds of the event path: parsing holds the strings of one
chunk of rows at a time, and the edge keys are built in place.

The peaks are taken with ``tracemalloc``, which sees numpy's array
buffers as well as Python objects, so they are deterministic for one
numpy version.
"""

import tracemalloc

import numpy as np

from sdsbm.graph_model import DynamicNetwork, VertexTyping
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
