import csv
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdsbm import graph_model, ingest
from sdsbm.graph_model import (
    DynamicNetwork,
    VertexTyping,
    extract_block_series,
    pair_possible_edges,
)
from sdsbm.ingest import (
    EMPTY_GRAPH,
    BucketingConfig,
    IngestError,
    MISSING_OBSERVATION,
    ModelChecksumError,
    ModelFormatError,
    ModelVersionError,
    _checksum,
    load_model,
    parse_inputs,
    save_model,
)
from sdsbm.ssm import ModelParams


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


UNIT = BucketingConfig(origin=0.0, width=1.0)


def edges(net):
    """A network's edges as (t, u, v) vertex-id triples, in key order."""
    ids = net.typing.vertex_ids
    return [(t, ids[u], ids[v]) for t, u, v in zip(*(net.edge_t, net.edge_u, net.edge_v))]


class TestParseInputs:
    def test_minimal_files(self, tmp_path):
        types = write(tmp_path, "types.csv", "vertex,type\n1,a\n2,b\n")
        events = write(tmp_path, "events.csv", "timestamp,src,dst\n100,1,2\n")
        net = parse_inputs(events, types, UNIT)
        assert net.keys.size == 1 and net.T == 101
        assert edges(net) == [(101, "1", "2")]
        assert net.typing.types == ("a", "b")

    def test_unknown_vertex_is_named(self, tmp_path):
        types = write(tmp_path, "types.csv", "vertex,type\n1,a\n2,b\n")
        events = write(tmp_path, "events.csv", "timestamp,src,dst\n100,1,9\n")
        with pytest.raises(IngestError, match="'9'"):
            parse_inputs(events, types, UNIT)

    def test_empty_events_file(self, tmp_path):
        types = write(tmp_path, "types.csv", "vertex,type\n1,a\n2,b\n")
        events = write(tmp_path, "events.csv", "timestamp,src,dst\n")
        net = parse_inputs(events, types, UNIT)
        assert net.keys.size == 0 and net.T == 0
        assert len(net.typing.vertex_ids) == 2

    def test_malformed_row_reports_line(self, tmp_path):
        types = write(tmp_path, "types.csv", "vertex,type\n1,a\n2,b\n")
        events = write(tmp_path, "events.csv", "timestamp,src,dst\n1,1,2\nbogus,1,2\n")
        with pytest.raises(IngestError, match=":3"):
            parse_inputs(events, types, UNIT)

    def test_self_loop_event_rejected(self, tmp_path):
        types = write(tmp_path, "types.csv", "vertex,type\n1,a\n")
        events = write(tmp_path, "events.csv", "timestamp,src,dst\n5,1,1\n")
        with pytest.raises(IngestError, match="self-loop"):
            parse_inputs(events, types, UNIT)

    def test_duplicate_vertex_rejected(self, tmp_path):
        types = write(tmp_path, "types.csv", "vertex,type\n1,a\n1,b\n")
        events = write(tmp_path, "events.csv", "timestamp,src,dst\n")
        with pytest.raises(IngestError, match="duplicate"):
            parse_inputs(events, types, UNIT)

    def test_types_error_names_physical_line(self, tmp_path):
        # the quoted vertex spans lines 2-3, so the duplicate is on line 5
        types = write(tmp_path, "types.csv", 'vertex,type\n"x\ny",a\n2,b\n2,a\n')
        events = write(tmp_path, "events.csv", "timestamp,src,dst\n")
        with pytest.raises(IngestError) as info:
            parse_inputs(events, types, UNIT)
        assert str(info.value) == f"{types}:5: duplicate vertex '2'"

    def test_bad_header_rejected(self, tmp_path):
        types = write(tmp_path, "types.csv", "id,kind\n1,a\n")
        events = write(tmp_path, "events.csv", "timestamp,src,dst\n")
        with pytest.raises(IngestError, match="header"):
            parse_inputs(events, types, UNIT)

    def test_blank_rows_and_padding_are_accepted(self, tmp_path):
        types = write(tmp_path, "types.csv", "vertex,type\n1,a\n2,b\n")
        events = write(tmp_path, "events.csv", "timestamp,src,dst\n\n 1.5 , 2 ,1\n\n")
        net = parse_inputs(events, types, UNIT)
        assert (net.edge_t.tolist(), net.edge_u.tolist(), net.edge_v.tolist()) == ([2], [0], [1])

    @pytest.mark.parametrize(
        "name,text,line",
        [
            ("events.csv", "timestamp,src,dst\n1,1,2\n2,1,\xe92\n", 3),
            ("events.csv", "timestamp,src,dst\n\xe9,1,2\n", 2),
            ("events.csv", "timest\xe9mp,src,dst\n1,1,2\n", 1),
            ("types.csv", "vertex,type\n1,a\n2,\xe9\n", 3),
        ],
    )
    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path, name, text, line):
        files = {
            "types.csv": write(tmp_path, "types.csv", "vertex,type\n1,a\n2,b\n"),
            "events.csv": write(tmp_path, "events.csv", "timestamp,src,dst\n"),
        }
        files[name].write_bytes(text.encode("latin-1"))
        with pytest.raises(IngestError) as info:
            parse_inputs(files["events.csv"], files["types.csv"], UNIT)
        assert str(info.value) == f"{files[name]}:{line}: not UTF-8 text (byte 0xe9)"

    def test_non_ascii_names_are_read_as_utf8(self, tmp_path):
        types = write(tmp_path, "types.csv", "vertex,type\nz\u00e9,\u00e9\ny,b\n")
        events = write(tmp_path, "events.csv", "timestamp,src,dst\n0.5,y,z\u00e9\n")
        net = parse_inputs(events, types, UNIT)
        assert net.typing.types == ("b", "\u00e9") and edges(net) == [(1, "z\u00e9", "y")]


GOOD = "1,1,2\n"


BAD_ROWS = [
    pytest.param(GOOD + "2,1\n", "{path}:3: expected 3 columns, got 2", id="columns-short"),
    pytest.param(GOOD + "2,1,2,3\n", "{path}:3: expected 3 columns, got 4", id="columns-long"),
    pytest.param(GOOD + "bogus,1,2\n", "{path}:3: bad timestamp 'bogus'", id="timestamp-unparsable"),
    pytest.param(GOOD + "inf,1,2\n", "{path}:3: non-finite timestamp", id="timestamp-inf"),
    pytest.param(GOOD + "nan,1,2\n", "{path}:3: non-finite timestamp", id="timestamp-nan"),
    pytest.param(GOOD + "5, 1,1 \n", "{path}:3: self-loop event on vertex '1'", id="self-loop"),
    pytest.param(GOOD + "5,9,9\n", "{path}:3: self-loop event on vertex '9'", id="self-loop-unknown"),
    pytest.param(GOOD + "5,1,9\n", "{path}:3: vertex '9' has no type", id="unknown-dst"),
    pytest.param(GOOD + "5,9,1\n", "{path}:3: vertex '9' has no type", id="unknown-src"),
    # blank rows still count as lines
    pytest.param("\n" + GOOD + "\nbogus,1,2\n", "{path}:5: bad timestamp 'bogus'", id="blank-rows-count"),
    # a quoted field may hold a newline: errors name physical lines
    pytest.param('5,"1\n",2\n' + "\n" + GOOD + "5,1,9\n", "{path}:6: vertex '9' has no type", id="multi-line-field"),
    pytest.param(GOOD + '5,"9\n",1\n', "{path}:4: vertex '9' has no type", id="multi-line-bad-row"),
    # far from the start, so the bulk conversion has to locate it
    pytest.param(GOOD * 500 + "x,1,2\n" + GOOD * 500, "{path}:502: bad timestamp 'x'", id="deep-timestamp"),
    pytest.param(GOOD * 500 + "1,1\n" + GOOD * 500, "{path}:502: expected 3 columns, got 2", id="deep-columns"),
    # two different faults: the earlier line wins
    pytest.param(GOOD + "5,1,9\n" + "bogus,1,2\n", "{path}:3: vertex '9' has no type", id="unknown-before-timestamp"),
    pytest.param(GOOD + "bogus,1,2\n" + "5,1,9\n", "{path}:3: bad timestamp 'bogus'", id="timestamp-before-unknown"),
    pytest.param(GOOD + "inf,1,2\n" + "2,1\n", "{path}:3: non-finite timestamp", id="non-finite-before-columns"),
    pytest.param(GOOD + "2,1\n" + "5,1,1\n", "{path}:3: expected 3 columns, got 2", id="columns-before-self-loop"),
    pytest.param(GOOD + "5,2,2\n" + "2,1\n", "{path}:3: self-loop event on vertex '2'", id="self-loop-before-columns"),
    pytest.param(
        GOOD + "bogus,1,2\n" + "3,1," + "x" * 131073 + "\n",
        "{path}:3: bad timestamp 'bogus'",
        id="timestamp-before-oversized-field",
    ),
    # two faults in one row: the checks keep their order
    pytest.param(GOOD + "nan,1,1\n", "{path}:3: non-finite timestamp", id="same-row-non-finite-first"),
    pytest.param(GOOD + "x,9,9\n", "{path}:3: bad timestamp 'x'", id="same-row-timestamp-first"),
]


@pytest.mark.parametrize("rows,message", BAD_ROWS)
def test_bad_event_row_names_first_offending_line(tmp_path, rows, message):
    types = write(tmp_path, "types.csv", "vertex,type\n1,a\n2,b\n")
    events = write(tmp_path, "events.csv", "timestamp,src,dst\n" + rows)
    with pytest.raises(IngestError) as info:
        parse_inputs(events, types, UNIT)
    assert str(info.value) == message.format(path=events)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("rows,message", BAD_ROWS)
def test_bad_event_row_is_found_across_chunk_boundaries(tmp_path, monkeypatch, chunk, rows, message):
    # tiny chunks put the bad row, and the blank rows before it, on
    # every position relative to a chunk boundary
    monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk)
    test_bad_event_row_names_first_offending_line(tmp_path, rows, message)


def reference_parse(text, known):
    """Row-at-a-time reference for the events file ``text``: the
    ``(timestamps, srcs, dsts)`` lists, or the ``line: message`` of the
    first bad row."""
    stamps, srcs, dsts = [], [], []
    for lineno, row in enumerate(list(csv.reader(io.StringIO(text)))[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            return f"{lineno}: expected 3 columns, got {len(row)}"
        try:
            ts = float(row[0])
        except ValueError:
            return f"{lineno}: bad timestamp {row[0]!r}"
        if not math.isfinite(ts):
            return f"{lineno}: non-finite timestamp"
        u, v = row[1].strip(), row[2].strip()
        if u == v:
            return f"{lineno}: self-loop event on vertex {u!r}"
        if u not in known or v not in known:
            return f"{lineno}: vertex {u if u not in known else v!r} has no type"
        stamps.append(ts)
        srcs.append(known[u])
        dsts.append(known[v])
    return stamps, srcs, dsts


GOOD_FIELDS = st.tuples(
    st.floats(-1e6, 1e6).map(repr), st.sampled_from(["1", "2", " 3"]), st.sampled_from(["1", "2", "3 "])
).filter(lambda row: row[1].strip() != row[2].strip())
BAD_FIELDS = st.one_of(
    st.tuples(st.sampled_from(["x", "inf", "nan", ""]), st.just("1"), st.just("2")),
    st.tuples(st.just("1"), st.sampled_from(["1", "9"]), st.sampled_from(["1", "9"])),
    st.lists(st.just("1"), min_size=1, max_size=5).filter(lambda row: len(row) != 3).map(tuple),
)


@st.composite
def raw_event_files(draw):
    """An events file of good and blank rows, with up to two bad rows at
    random places."""
    lines = draw(st.lists(st.one_of(st.just(""), GOOD_FIELDS.map(",".join)), max_size=24))
    for row in draw(st.lists(BAD_FIELDS, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), ",".join(row))
    return "timestamp,src,dst\n" + "".join(line + "\n" for line in lines)


# every timestamp GOOD_FIELDS draws is at or after the origin
WIDE = BucketingConfig(origin=-1e6, width=1e3)


def reference_network(typing, stamps, srcs, dsts, config):
    """The network of parsed events by the per-event formula, uncapped."""
    t = np.floor((np.array(stamps, dtype=float) - config.origin) / config.width) + 1
    T = int(t.max()) if t.size else 0
    return DynamicNetwork.from_edges(typing, T, t, srcs, dsts)


@settings(max_examples=200, deadline=None)
@given(raw_event_files(), st.integers(1, 5))
def test_chunked_parse_matches_row_reference(text, chunk):
    typing = VertexTyping(vertex_ids=("1", "2", "3"), type_of={"1": "a", "2": "a", "3": "b"})
    expected = reference_parse(text, typing.vertex_index())
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "CHUNK_ROWS", chunk):
        tmp = Path(tmp)
        types = write(tmp, "types.csv", "vertex,type\n1,a\n2,a\n3,b\n")
        events = write(tmp, "events.csv", text)
        if isinstance(expected, str):
            with pytest.raises(IngestError) as info:
                parse_inputs(events, types, WIDE)
            assert str(info.value) == f"{events}:{expected}"
            return
        net = parse_inputs(events, types, WIDE)
    want = reference_network(typing, *expected, WIDE)
    assert net.keys.dtype == np.int64 and net.keys.tolist() == want.keys.tolist()
    assert net.T == want.T and net.typing == typing


def test_first_event_before_origin_is_named(tmp_path):
    types = write(tmp_path, "types.csv", "vertex,type\n1,a\n2,b\n")
    events = write(tmp_path, "events.csv", "timestamp,src,dst\n3,1,2\n-0.5,1,2\n-0.9,2,1\n")
    with pytest.raises(IngestError) as info:
        parse_inputs(events, types, BucketingConfig(origin=0.0, width=1.0, T=1))
    assert str(info.value) == "event at -0.5 precedes the bucketing origin 0.0"


def typing_ab():
    return VertexTyping(vertex_ids=("1", "2", "3"), type_of={"1": "a", "2": "a", "3": "b"})


def events_text(events):
    """An events file of ``(timestamp, src, dst)`` rows, in order."""
    return "timestamp,src,dst\n" + "".join(f"{ts!r},{u},{v}\n" for ts, u, v in events)


def types_text(typing):
    return "vertex,type\n" + "".join(f"{v},{typing.type_of[v]}\n" for v in typing.vertex_ids)


def bucketed(tmp_path, typing, events, config):
    """The network ``parse_inputs`` makes of ``events`` under ``typing``."""
    types = write(tmp_path, "types.csv", types_text(typing))
    return parse_inputs(write(tmp_path, "events.csv", events_text(events)), types, config)


class TestBucketize:
    def test_binarization_within_buckets(self, tmp_path):
        events = [(0.5, "1", "2"), (1.2, "1", "2"), (1.7, "2", "1")]
        net = bucketed(tmp_path, typing_ab(), events, BucketingConfig(origin=0.0, width=1.0))
        assert net.T == 2
        assert net.snapshots[0] == frozenset({("1", "2")})
        assert net.snapshots[1] == frozenset({("1", "2")})

    def test_boundary_event_goes_to_later_bucket(self, tmp_path):
        events = [(2.0, "1", "2")]
        net = bucketed(tmp_path, typing_ab(), events, BucketingConfig(origin=0.0, width=1.0))
        assert net.T == 3
        assert net.snapshots[1] == frozenset()
        assert net.snapshots[2] == frozenset({("1", "2")})

    def test_event_before_origin_rejected(self, tmp_path):
        events = [(-0.1, "1", "2")]
        with pytest.raises(IngestError, match="precedes"):
            bucketed(tmp_path, typing_ab(), events, BucketingConfig(origin=0.0, width=1.0))

    def test_cap_drops_late_events(self, tmp_path):
        events = [(0.5, "1", "2"), (9.5, "1", "3")]
        net = bucketed(tmp_path, typing_ab(), events, BucketingConfig(origin=0.0, width=1.0, T=2))
        assert net.T == 2
        per_snapshot = np.bincount(net.edge_t, minlength=net.T + 1)
        assert per_snapshot[1] == 1
        assert per_snapshot[2] == 0

    def test_missing_observation_policy(self, tmp_path):
        events = [(0.5, "1", "2"), (2.5, "1", "3")]
        config = BucketingConfig(
            origin=0.0, width=1.0, missing_policy=MISSING_OBSERVATION
        )
        net = bucketed(tmp_path, typing_ab(), events, config)
        assert net.missing == frozenset({2})
        assert np.isnan(extract_block_series(net).counts[:, 1]).all()

    def test_empty_graph_policy_keeps_zero(self, tmp_path):
        events = [(0.5, "1", "2"), (2.5, "1", "3")]
        net = bucketed(tmp_path, typing_ab(), events, BucketingConfig(origin=0.0, width=1.0))
        assert net.missing == frozenset()
        assert np.bincount(net.edge_t, minlength=net.T + 1)[2] == 0

    def test_conservation_of_bucket_pair_memberships(self, tmp_path, rng):
        # every in-range event is represented by exactly one
        # (bucket, pair) membership
        vertices = [str(i) for i in range(1, 21)]
        typing = VertexTyping(
            vertex_ids=tuple(vertices),
            type_of={v: "a" if int(v) % 2 else "b" for v in vertices},
        )
        idx = rng.integers(0, 20, size=(100_000, 2))
        idx = idx[idx[:, 0] != idx[:, 1]]
        times = rng.uniform(0, 500, size=idx.shape[0])
        events = [(ts, vertices[i], vertices[j]) for ts, (i, j) in zip(times.tolist(), idx.tolist())]
        net = bucketed(tmp_path, typing, events, BucketingConfig(origin=0.0, width=1.0))
        expected = {
            (int(np.floor(ts)) + 1, tuple(sorted((int(i), int(j)))))
            for ts, (i, j) in zip(times, idx)
        }
        per_snapshot = np.bincount(net.edge_t, minlength=net.T + 1)
        total = sum(per_snapshot[t] for t in range(1, net.T + 1))
        assert total == len(expected)

    def test_time_span_too_fine_for_int64_keys(self, tmp_path):
        events = [(0.5, "1", "2"), (1e16, "1", "3")]
        with pytest.raises(ValueError, match="int64"):
            bucketed(tmp_path, typing_ab(), events, BucketingConfig(origin=0.0, width=1e-3))
        with pytest.raises(IngestError, match="too small"):
            bucketed(tmp_path, typing_ab(), events, BucketingConfig(origin=0.0, width=1e-300))


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(12))))
def test_bucketize_is_order_insensitive(order):
    base = [
        (float(t) + 0.25 * (i % 3), u, v)
        for i, (t, u, v) in enumerate(
            [(0, "1", "2"), (0, "2", "3"), (1, "1", "3"), (2, "1", "2")] * 3
        )
    ]
    shuffled = [base[i] for i in order]
    cfg = BucketingConfig(origin=0.0, width=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert bucketed(tmp, typing_ab(), shuffled, cfg).snapshots == bucketed(
            tmp, typing_ab(), base, cfg
        ).snapshots


CHUNK_ROWS = graph_model.CHUNK_ROWS
SIZES = [0, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]


def interleaved_typing(n=12):
    """Types interleaved and out of label order, so an event's first
    endpoint often comes after its second in the vertex order."""
    ids = tuple(f"v{k}" for k in range(n))
    return VertexTyping(vertex_ids=ids, type_of={v: "cba"[k % 3] for k, v in enumerate(ids)})


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize(
    "config",
    [
        BucketingConfig(origin=0.0, width=1.0),
        BucketingConfig(origin=0.0, width=1.0, T=30),
        BucketingConfig(origin=-0.5, width=0.5, missing_policy=MISSING_OBSERVATION),
        BucketingConfig(origin=0.0, width=1.0, T=30, missing_policy=MISSING_OBSERVATION),
    ],
    ids=["uncapped", "capped", "missing-uncapped", "missing-capped"],
)
def test_chunked_ingest_matches_per_event_network(tmp_path, size, config):
    # only even buckets see events, and repeats (some reversed) fall in
    # one chunk and across chunks
    rng = np.random.default_rng(size)
    typing = interleaved_typing()
    ids = typing.vertex_ids
    i = rng.integers(0, len(ids), size)
    j = (i + rng.integers(1, len(ids), size)) % len(ids)
    ts = 2.0 * rng.integers(0, 20, size) + rng.uniform(0.0, 1.0, size)
    net = bucketed(tmp_path, typing, zip(ts.tolist(), (ids[k] for k in i), (ids[k] for k in j)), config)
    t = np.floor((ts - config.origin) / config.width) + 1
    T = config.T if config.T is not None else int(t.max()) if size else 0
    kept = t <= T
    want = DynamicNetwork.from_edges(typing, T, t[kept], i[kept], j[kept])
    assert net.T == T and np.array_equal(net.keys, want.keys)
    busy = set(want.edge_t.tolist())
    empty = {s for s in range(1, T + 1) if s not in busy}
    assert net.missing == (empty if config.missing_policy == MISSING_OBSERVATION else frozenset())


def test_repeat_split_across_chunks_is_counted_once(tmp_path):
    filler = [(1.5, "1", "2")] * (CHUNK_ROWS - 1)
    events = [(0.25, "1", "3"), *filler, (0.75, "3", "1"), *filler]
    net = bucketed(tmp_path, typing_ab(), events, UNIT)
    assert edges(net) == [(1, "1", "3"), (2, "1", "2")]
    assert extract_block_series(net).counts.tolist() == [[0.0, 1.0], [1.0, 0.0]]


GOOD_ROW = (1.5, "1", "2")


@pytest.mark.parametrize(
    "first,later,message",
    [
        # an event before the origin in the first chunk, a bad row in the third
        ((-1.0, "1", "2"), "bogus,1,2", "{path}:{line}: bad timestamp 'bogus'"),
        # a timestamp past the int64 key range in the first chunk
        ((1e300, "1", "2"), "bogus,1,2", "{path}:{line}: bad timestamp 'bogus'"),
        ((1e300, "1", "2"), "-2.5,1,2", "event at -2.5 precedes the bucketing origin 0.0"),
    ],
    ids=["early-then-bad-row", "key-range-then-bad-row", "key-range-then-early"],
)
def test_deferred_faults_yield_to_later_ones(tmp_path, first, later, message):
    text = events_text([first, *[GOOD_ROW] * (2 * CHUNK_ROWS + 5)]) + later + "\n"
    types = write(tmp_path, "types.csv", types_text(typing_ab()))
    events = write(tmp_path, "events.csv", text)
    with pytest.raises(IngestError) as info:
        parse_inputs(events, types, UNIT)
    assert str(info.value) == message.format(path=events, line=2 * CHUNK_ROWS + 8)


def test_first_early_event_in_file_order_is_named(tmp_path):
    events = [*[GOOD_ROW] * 9, (-0.25, "1", "2"), *[GOOD_ROW] * CHUNK_ROWS, (-3.0, "2", "3")]
    with pytest.raises(IngestError) as info:
        bucketed(tmp_path, typing_ab(), events, UNIT)
    assert str(info.value) == "event at -0.25 precedes the bucketing origin 0.0"


def test_key_range_error_names_timestamp_and_width(tmp_path):
    events = [(0.5, "1", "2"), (1e300, "1", "3")]
    with pytest.raises(IngestError) as info:
        bucketed(tmp_path, typing_ab(), events, BucketingConfig(origin=0.0, width=2.0))
    assert str(info.value) == (
        "event at 1e+300 is too late to index edges of 3 vertices in int64 with bucket width 2"
    )


def reference_block_counts(typing, events, config):
    """Per-edge reference: a set of vertex pairs per bucket, then one
    count per type pair and bucket."""
    buckets = {}
    for ts, u, v in events:
        t = math.floor((ts - config.origin) / config.width) + 1
        if config.T is not None and t > config.T:
            continue
        buckets.setdefault(t, set()).add(frozenset((u, v)))
    T = config.T if config.T is not None else max(buckets, default=0)
    counts = {pair: [0.0] * T for pair in typing.pairs()}
    for t, edges in buckets.items():
        for edge in edges:
            pair = tuple(sorted(typing.type_of[x] for x in edge))
            counts[pair][t - 1] += 1
    if config.missing_policy == MISSING_OBSERVATION:
        for t in range(1, T + 1):
            if t not in buckets:
                for series in counts.values():
                    series[t - 1] = math.nan
    return counts


@st.composite
def event_files(draw):
    n_vertices = draw(st.integers(min_value=2, max_value=6))
    labels = ["x", "y", "z"][: draw(st.integers(min_value=1, max_value=3))]
    vertex_ids = tuple(f"v{k}" for k in range(n_vertices))
    typing = VertexTyping(
        vertex_ids=vertex_ids,
        type_of={v: draw(st.sampled_from(labels)) for v in vertex_ids},
    )
    width = draw(st.sampled_from([1.0, 0.5, 2.0]))
    origin = draw(st.sampled_from([0.0, -1.5, 3.0]))
    ordered = st.lists(
        st.tuples(st.integers(0, n_vertices - 1), st.integers(0, n_vertices - 1)).filter(
            lambda p: p[0] != p[1]
        ),
    )
    # half-bucket steps: every other timestamp lies exactly on a boundary
    raw = draw(st.lists(st.tuples(st.integers(0, 11), ordered.map(tuple)), max_size=12))
    events = []
    for step, pairs in raw:
        ts = origin + 0.5 * step * width
        for i, j in pairs:
            events.append((ts, vertex_ids[i], vertex_ids[j]))
            if draw(st.booleans()):  # a repeat, possibly reversed
                events.append((ts, *draw(st.permutations([vertex_ids[i], vertex_ids[j]]))))
    events = draw(st.permutations(events))
    config = BucketingConfig(
        origin=origin,
        width=width,
        T=draw(st.one_of(st.none(), st.integers(0, 7))),
        missing_policy=draw(st.sampled_from([EMPTY_GRAPH, MISSING_OBSERVATION])),
    )
    return typing, events, config


@settings(max_examples=150, deadline=None)
@given(event_files())
def test_columnar_counts_match_per_edge_reference(case):
    typing, events, config = case
    with tempfile.TemporaryDirectory() as tmp:
        net = bucketed(Path(tmp), typing, events, config)
    assert net.typing == typing
    expected = reference_block_counts(typing, events, config)
    stack = extract_block_series(net)
    assert stack.pairs == tuple(p for p in typing.pairs() if pair_possible_edges(typing, p))
    for pair, counts in zip(stack.pairs, stack.counts):
        np.testing.assert_array_equal(counts, np.array(expected[pair]), err_msg=str(pair))


def example_params(d=3, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d))
    return ModelParams(
        d=d,
        q_m=float(rng.uniform(1e-7, 1e-3)),
        q_s=float(rng.uniform(1e-7, 1e-3)),
        r=float(rng.uniform(0, 1e-3)),
        mu0=rng.normal(size=d),
        Sigma0=0.01 * (A @ A.T + np.eye(d)),
    )


class TestModelPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = {("a", "a"): example_params(seed=1), ("a", "b"): example_params(seed=2)}
        ns = {("a", "a"): 496, ("a", "b"): 512}
        path = tmp_path / "model.json"
        save_model(params, ns, path)
        loaded, loaded_ns = load_model(path)
        assert loaded_ns == ns
        for pair, p in params.items():
            q = loaded[pair]
            assert (q.d, q.q_m, q.q_s, q.r) == (p.d, p.q_m, p.q_s, p.r)
            np.testing.assert_array_equal(q.mu0, p.mu0)
            np.testing.assert_array_equal(q.Sigma0, p.Sigma0)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model({("a", "a"): example_params()}, {("a", "a"): 10}, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError, match="99"):
            load_model(path)

    def test_truncated_file_fails_checksum(self, tmp_path):
        path = tmp_path / "model.json"
        save_model({("a", "a"): example_params()}, {("a", "a"): 10}, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelChecksumError):
            load_model(path)

    def test_tampered_content_fails_checksum(self, tmp_path):
        path = tmp_path / "model.json"
        save_model({("a", "a"): example_params()}, {("a", "a"): 10}, path)
        doc = json.loads(path.read_text())
        doc["blocks"][0]["q_m"] = 0.123
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelChecksumError, match="checksum"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda blocks: blocks.append(dict(blocks[0])), "block 2: duplicate block a:a"),
            (lambda blocks: blocks[1].update(a=7), "block 1: type labels must be strings"),
            (lambda blocks: blocks[0].update(b=["a"]), "block 0: type labels must be strings"),
            (lambda blocks: blocks[0].update(n=2.7), "block 0: n must be an integer >= 1, got 2.7"),
            (lambda blocks: blocks[0].update(n=496.0), "n must be an integer"),
            (lambda blocks: blocks[1].update(n=-3), "block 1: n must be an integer >= 1, got -3"),
        ],
    )
    def test_malformed_block_rejected(self, tmp_path, edit, message):
        # the checksum is recomputed, so the block check is the one that fires
        path = tmp_path / "model.json"
        params = {("a", "a"): example_params(seed=1), ("a", "b"): example_params(seed=2)}
        save_model(params, {("a", "a"): 496, ("a", "b"): 512}, path)
        doc = json.loads(path.read_text())
        del doc["checksum"]
        edit(doc["blocks"])
        doc["checksum"] = _checksum(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_mixed_periods_rejected(self, tmp_path):
        params = {("a", "a"): example_params(d=3), ("a", "b"): example_params(d=4)}
        with pytest.raises(ValueError, match="disagree"):
            save_model(params, {("a", "a"): 10, ("a", "b"): 10}, tmp_path / "m.json")
