"""Edge-event parsing, time bucketing and model persistence.

File formats:

* events CSV, header ``timestamp,src,dst``; timestamps are decimal
  seconds relative to an arbitrary epoch.
* types CSV, header ``vertex,type``.
* model file: JSON with a format version, a content checksum and one
  entry per block ``{a, b, n, q_m, q_s, r, mu0, sigma0}``.

Ingest is columnar.  The CSV rows are streamed into three string
columns of at most ``CHUNK_ROWS`` events; each full chunk is converted
in bulk into a float timestamp array and two int64 vertex-index arrays
before more rows are read, and the chunks' arrays are joined into one
:class:`EventColumns` at the end.  The strings of one chunk are all that
is held of the text, so parsing peaks at about twice the 24 bytes per
event of the numeric columns (the chunks and their join), not at the
few hundred bytes per event of the rows' strings.  The events are
bucketed by one vectorised floor, and repeats within a bucket are
removed by sorting packed ``(t, lower vertex, higher vertex)`` int64
keys, which yields the integer edge arrays of a
:class:`~sdsbm.graph_model.DynamicNetwork`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping

import numpy as np

from .graph_model import DynamicNetwork, TypePair, VertexTyping, pair_key
from .ssm import ModelParams

MODEL_FORMAT_VERSION = 1

EMPTY_GRAPH = "empty-graph"
MISSING_OBSERVATION = "missing-observation"

# Events converted to arrays at a time; the strings of at most this many
# rows are held at once.
CHUNK_ROWS = 4096


class IngestError(ValueError):
    """Malformed or inconsistent input data."""


class ModelFormatError(ValueError):
    """Model file cannot be used."""


class ModelVersionError(ModelFormatError):
    pass


class ModelChecksumError(ModelFormatError):
    pass


@dataclass(frozen=True)
class EventColumns:
    """Edge events in file order, one array entry per event: the
    timestamp and the two endpoints' indices in the typing's vertex
    order."""

    timestamp: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamp.shape[0])


@dataclass(frozen=True)
class BucketingConfig:
    """How to discretise event time.

    Buckets are half-open: bucket t covers
    [origin + (t-1) * width, origin + t * width), so boundary events
    land in the later bucket.  ``T`` optionally caps the number of
    buckets (later events are dropped).  ``missing_policy`` decides
    whether an event-free bucket is an observed empty graph or a gap.
    """

    origin: float
    width: float
    T: int | None = None
    missing_policy: str = EMPTY_GRAPH

    def __post_init__(self) -> None:
        if not math.isfinite(self.origin):
            raise ValueError(f"bucketing origin must be finite, got {self.origin}")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"bucket width must be positive and finite, got {self.width}")
        if self.T is not None and self.T < 0:
            raise ValueError("bucket cap must be >= 0")
        if self.missing_policy not in (EMPTY_GRAPH, MISSING_OBSERVATION):
            raise ValueError(f"unknown missing policy {self.missing_policy!r}")


def parse_inputs(events_file, types_file) -> tuple[EventColumns, VertexTyping]:
    """Read and validate an event file against a vertex-type file."""
    typing = _parse_types(types_file)
    events = _parse_events(events_file, typing)
    return events, typing


def _csv_rows(path, reader):
    """The rows of a ``csv.reader``; a row the reader refuses (a field
    over its size limit, say) is a data error naming the physical line,
    the reader's ``line_num``, as every row error does."""
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(f"{path}:{reader.line_num}: {exc}") from None


def _parse_types(path) -> VertexTyping:
    vertex_ids: list[str] = []
    type_of: dict[str, str] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(path, reader)
        header = next(rows, None)
        if header is None or [c.strip() for c in header] != ["vertex", "type"]:
            raise IngestError(f"{path}: expected header 'vertex,type'")
        for row in rows:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != 2:
                raise IngestError(f"{where}: expected 2 columns, got {len(row)}")
            vertex, label = row[0].strip(), row[1].strip()
            if not vertex or not label:
                raise IngestError(f"{where}: empty vertex or type")
            if vertex in type_of:
                raise IngestError(f"{where}: duplicate vertex {vertex!r}")
            vertex_ids.append(vertex)
            type_of[vertex] = label
    if not vertex_ids:
        raise IngestError(f"{path}: no vertices")
    return VertexTyping(vertex_ids=tuple(vertex_ids), type_of=type_of)


def _parse_events(path, typing: VertexTyping) -> EventColumns:
    """Stream the rows into three string columns of at most
    ``CHUNK_ROWS`` events, and convert each full chunk in bulk before
    reading on.  When any row is bad, the file is read again row by row
    and the first bad one in file order is reported."""
    index = typing.vertex_index()
    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    stamps: list[str] = []
    srcs: list[str] = []
    dsts: list[str] = []

    def convert() -> None:
        chunk = _convert_chunk(stamps, srcs, dsts, index)
        if chunk is None:
            raise _first_bad_event(path, index)
        chunks.append(chunk)
        stamps.clear()
        srcs.clear()
        dsts.clear()

    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows, None)
            if header is None or [c.strip() for c in header] != ["timestamp", "src", "dst"]:
                raise IngestError(f"{path}: expected header 'timestamp,src,dst'")
            add_stamp, add_src, add_dst = stamps.append, srcs.append, dsts.append
            for row in rows:
                if len(row) == 3:
                    add_stamp(row[0])
                    add_src(row[1])
                    add_dst(row[2])
                    if len(stamps) == CHUNK_ROWS:
                        convert()
                elif row:
                    raise _first_bad_event(path, index)
        except csv.Error:
            # a bad row still unconverted before the refused one comes first
            raise _first_bad_event(path, index) from None
    convert()
    return EventColumns(*(np.concatenate(column) for column in zip(*chunks)))


def _convert_chunk(stamps, srcs, dsts, index):
    """The timestamp, source and destination arrays of one chunk of
    string columns, or None when any of its rows is bad."""
    n = len(stamps)
    src = np.fromiter(map(index.get, map(str.strip, srcs), repeat(-1)), np.int64, n)
    dst = np.fromiter(map(index.get, map(str.strip, dsts), repeat(-1)), np.int64, n)
    try:
        timestamp = np.fromiter(map(float, stamps), float, n)
    except ValueError:
        return None
    if ((src < 0) | (dst < 0) | (src == dst) | ~np.isfinite(timestamp)).any():
        return None
    return timestamp, src, dst


def _first_bad_event(path, known) -> IngestError:
    """The error for the first bad row of an events file, found by
    reading it again row by row once a bad row is seen; a row the CSV
    reader refuses raises here.  A row's checks run in the order its
    fields are read, so the first failing one names it."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(path, reader)
        next(rows)  # the header, checked already
        for row in filter(None, rows):
            where = f"{path}:{reader.line_num}"
            if len(row) != 3:
                return IngestError(f"{where}: expected 3 columns, got {len(row)}")
            try:
                ts = float(row[0])
            except ValueError:
                return IngestError(f"{where}: bad timestamp {row[0]!r}")
            if not math.isfinite(ts):
                return IngestError(f"{where}: non-finite timestamp")
            src, dst = row[1].strip(), row[2].strip()
            if src == dst:
                return IngestError(f"{where}: self-loop event on vertex {src!r}")
            if src not in known or dst not in known:
                return IngestError(f"{where}: vertex {src if src not in known else dst!r} has no type")
    return IngestError(f"{path}: changed while it was read")


def bucketize(
    events: EventColumns, typing: VertexTyping, config: BucketingConfig
) -> DynamicNetwork:
    """Collapse timestamped events into binary adjacency snapshots.

    A pair is connected in bucket t if at least one event touched it
    there; multiplicities are discarded.  Order of the events does not
    matter.
    """
    ts = events.timestamp
    early = ts < config.origin
    if early.any():
        raise IngestError(
            f"event at {float(ts[np.argmax(early)])} precedes the bucketing origin "
            f"{config.origin}"
        )
    with np.errstate(over="ignore"):  # an infinite bucket index is reported below
        t = np.floor((ts - config.origin) / config.width) + 1
    src, dst = events.src, events.dst
    if config.T is not None:
        T = config.T
        kept = t <= T
        t, src, dst = t[kept], src[kept], dst[kept]
    else:
        last = float(t.max()) if t.size else 0.0
        if not math.isfinite(last):
            raise IngestError(f"bucket width {config.width} is too small for the time span")
        T = int(last)
    missing: frozenset[int] = frozenset()
    if config.missing_policy == MISSING_OBSERVATION:
        seen = np.zeros(T + 1, dtype=bool)
        seen[t.astype(np.int64)] = True
        missing = frozenset((np.flatnonzero(~seen[1:]) + 1).tolist())
    return DynamicNetwork.from_edges(typing, T, t, src, dst, missing=missing)


def _canonical_payload(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict) -> str:
    return hashlib.sha256(_canonical_payload(payload).encode()).hexdigest()


def save_model(
    params: Mapping[TypePair, ModelParams],
    n_by_pair: Mapping[TypePair, int],
    path,
) -> None:
    """Persist fitted per-block parameters with a version and checksum.

    All blocks must share one period d.  Floats go through JSON's
    shortest round-trip representation, so reloading is bit-exact.
    """
    if not params:
        raise ValueError("no blocks to save")
    ds = {p.d for p in params.values()}
    if len(ds) != 1:
        raise ValueError(f"blocks disagree on period d: {sorted(ds)}")
    blocks = []
    for pair in sorted(params):
        p = params[pair]
        if pair not in n_by_pair:
            raise ValueError(f"no possible-edge count for block {pair}")
        blocks.append(
            {
                "a": pair[0],
                "b": pair[1],
                "n": int(n_by_pair[pair]),
                "q_m": p.q_m,
                "q_s": p.q_s,
                "r": p.r,
                "mu0": [float(x) for x in p.mu0],
                "sigma0": [[float(x) for x in row] for row in p.Sigma0],
            }
        )
    payload = {"version": MODEL_FORMAT_VERSION, "d": ds.pop(), "blocks": blocks}
    document = dict(payload)
    document["checksum"] = _checksum(payload)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> tuple[dict[TypePair, ModelParams], dict[TypePair, int]]:
    """Reload a saved model, verifying version and content checksum."""
    with open(path) as fh:
        text = fh.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelChecksumError(f"{path}: unreadable or truncated model file") from exc
    if not isinstance(document, dict):
        raise ModelChecksumError(f"{path}: not a model file")
    version = document.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"{path}: unsupported model format version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    stored = document.pop("checksum", None)
    if stored is None or _checksum(document) != stored:
        raise ModelChecksumError(f"{path}: checksum mismatch")
    d = document.get("d")
    blocks = document.get("blocks")
    if type(d) is not int:
        raise ModelFormatError(f"{path}: period d must be an integer, got {d!r}")
    if not isinstance(blocks, list) or not blocks:
        raise ModelFormatError(f"{path}: 'blocks' must be a non-empty list")
    params: dict[TypePair, ModelParams] = {}
    n_by_pair: dict[TypePair, int] = {}
    for k, blk in enumerate(blocks):
        try:
            pair = (blk["a"], blk["b"])
            n = blk["n"]
            if not all(isinstance(label, str) for label in pair):
                raise ValueError(f"type labels must be strings, got {list(pair)!r}")
            if pair in params:
                raise ValueError(f"duplicate block {pair_key(pair)}")
            if type(n) is not int or n < 1:
                raise ValueError(f"n must be an integer >= 1, got {n!r}")
            params[pair] = ModelParams(
                d=d,
                q_m=blk["q_m"],
                q_s=blk["q_s"],
                r=blk["r"],
                mu0=np.array(blk["mu0"], dtype=float),
                Sigma0=np.array(blk["sigma0"], dtype=float),
            )
            n_by_pair[pair] = n
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"{path}: block {k}: {exc}") from None
    return params, n_by_pair
