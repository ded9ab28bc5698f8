"""Edge-event parsing, time bucketing and model persistence.

File formats:

* events CSV, header ``timestamp,src,dst``; timestamps are decimal
  seconds relative to an arbitrary epoch.
* types CSV, header ``vertex,type``.
* model file: JSON with a format version, a content checksum and one
  entry per block ``{a, b, n, q_m, q_s, r, mu0, sigma0}`` (JSON numbers).
  ``write_json`` writes it and every other JSON output as RFC 8259 JSON,
  a non-finite float as the string "inf", "-inf" or "nan".

All files are read and written as UTF-8 text; a byte of an input that
is not UTF-8 is a data error naming the file and its line.

Ingest goes from the events file to one int64 edge key per event.  The
CSV rows are streamed into three string columns of at most
``CHUNK_ROWS`` events; each full chunk is converted in bulk (float
timestamps, int64 vertex indices), bucketed by one vectorised floor
and packed into the keys ``(t * V + lower vertex) * V + higher vertex``
of a :class:`~sdsbm.graph_model.DynamicNetwork` before more rows are
read.  The strings and arrays of one chunk are all that is held besides
the keys, so ingest peaks at about twice the 8 bytes per event of the
keys (the chunks and their join), not at the few hundred bytes per
event of the rows' strings.  The joined keys are sorted once, in
place, and repeats within a bucket are dropped once, after that sort.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Mapping

import numpy as np

from .graph_model import (
    CHUNK_ROWS,
    DynamicNetwork,
    TypePair,
    VertexTyping,
    edge_keys,
    max_snapshots,
    pair_key,
)
from .ssm import ModelParams

MODEL_FORMAT_VERSION = 1

EMPTY_GRAPH = "empty-graph"
MISSING_OBSERVATION = "missing-observation"


class IngestError(ValueError):
    """Malformed or inconsistent input data."""


class ModelFormatError(ValueError):
    """Model file cannot be used."""


class ModelVersionError(ModelFormatError):
    pass


class ModelChecksumError(ModelFormatError):
    pass


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


def parse_inputs(events_file, types_file, config: BucketingConfig) -> DynamicNetwork:
    """Read an event file against a vertex-type file and collapse the
    events into binary snapshots.

    A pair is connected in bucket t if at least one event touched it
    there; multiplicities and the order of the events do not matter.
    """
    typing = _parse_types(types_file)
    return _parse_events(events_file, typing, config)


def _open_csv(path):
    """A CSV file as UTF-8 text.  A byte that is not UTF-8 is kept as a
    surrogate escape, which :func:`_csv_rows` finds in its row, so the
    error names the row's line like every other row error."""
    return open(path, newline="", encoding="utf-8", errors="surrogateescape")


def _csv_rows(path, reader):
    """The rows of a ``csv.reader``; a row the reader refuses (a field
    over its size limit, say), or a row with a byte that is not UTF-8,
    is a data error naming the physical line, the reader's
    ``line_num``, as every row error does."""
    try:
        for row in reader:
            for field in row:
                try:
                    field.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(field[exc.start]) - 0xDC00  # the escape of that byte
                    raise IngestError(
                        f"{path}:{reader.line_num}: not UTF-8 text (byte 0x{byte:02x})"
                    ) from None
            yield row
    except csv.Error as exc:
        raise IngestError(f"{path}:{reader.line_num}: {exc}") from None


def _parse_types(path) -> VertexTyping:
    vertex_ids: list[str] = []
    type_of: dict[str, str] = {}
    with _open_csv(path) as fh:
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


def _parse_events(path, typing: VertexTyping, config: BucketingConfig) -> DynamicNetwork:
    """Stream the rows into three string columns of at most
    ``CHUNK_ROWS`` events, and convert each full chunk to edge keys
    before reading on.  When any row is bad, the file is read again row
    by row and the first bad one in file order is reported."""
    index = typing.vertex_index()
    keys = _EdgeKeys(config, len(typing.vertex_ids))
    stamps: list[str] = []
    srcs: list[str] = []
    dsts: list[str] = []

    def convert() -> None:
        chunk = _convert_chunk(stamps, srcs, dsts, index)
        if chunk is None:
            raise _first_bad_event(path, index)
        keys.add(*chunk)
        stamps.clear()
        srcs.clear()
        dsts.clear()

    with _open_csv(path) as fh:
        rows = csv.reader(fh)
        try:
            header = next(_csv_rows(path, rows), None)
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
    return keys.network(typing)


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
    with _open_csv(path) as fh:
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


class _EdgeKeys:
    """The edge keys of the converted chunks of one events file.

    Two faults are reported only once the whole file has been read, so
    that a bad row anywhere in it is reported first: an event before the
    origin (the first in file order is named), and a bucket index past
    what int64 edge keys can hold.  Once either is seen, no more keys
    are kept.
    """

    def __init__(self, config: BucketingConfig, n_vertices: int):
        self.config = config
        self.V = n_vertices
        self.chunks: list[np.ndarray] = []
        self.early: float | None = None  # the first timestamp before the origin
        # the bucket cap, or else the last bucket and its latest timestamp so far
        self.last = 0.0 if config.T is None else config.T
        self.latest = math.nan

    def add(self, timestamp, src, dst) -> None:
        config = self.config
        if self.early is None:
            early = timestamp < config.origin
            if early.any():
                self.early = float(timestamp[np.argmax(early)])
                self.chunks.clear()
        if self.early is not None or not timestamp.size:
            return
        with np.errstate(over="ignore"):  # an infinite index is reported at the end
            t = np.floor((timestamp - config.origin) / config.width) + 1
        if config.T is not None:
            kept = t <= config.T
            t, src, dst = t[kept], src[kept], dst[kept]
        elif t.max() > self.last:
            self.last, self.latest = float(t.max()), float(timestamp.max())
        if self.last > max_snapshots(self.V):
            self.chunks.clear()
            return
        self.chunks.append(edge_keys(t, src, dst, self.V))

    def network(self, typing: VertexTyping) -> DynamicNetwork:
        config = self.config
        if self.early is not None:
            raise IngestError(
                f"event at {self.early} precedes the bucketing origin {config.origin}"
            )
        if config.T is None and not math.isfinite(self.last):
            raise IngestError(f"bucket width {config.width} is too small for the time span")
        if config.T is None and self.last > max_snapshots(self.V):
            raise IngestError(
                f"event at {self.latest:g} is too late to index edges of {self.V} vertices "
                f"in int64 with bucket width {config.width:g}"
            )
        keys = np.concatenate(self.chunks) if self.chunks else np.zeros(0, np.int64)
        self.chunks.clear()
        network = DynamicNetwork.from_keys(typing, int(self.last), keys)
        if config.missing_policy == MISSING_OBSERVATION:
            empty = np.flatnonzero(network.edges_per_snapshot() == 0) + 1
            network = replace(network, missing=frozenset(empty.tolist()))
        return network


def read_text(path, error: type[Exception]) -> str:
    """The whole of a UTF-8 text file; a byte that is not UTF-8 raises
    ``error`` naming the file and the byte's line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})") from None


def _strict_json(value):
    """``value`` with every non-finite float written as its name ("inf",
    "-inf" or "nan"): RFC 8259 JSON has no number for them."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_strict_json(v) for v in value]
    return value


def write_json(payload: dict, path) -> None:
    """Write ``payload`` as indented, key-sorted RFC 8259 JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict_json(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


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
    write_json({**payload, "checksum": _checksum(payload)}, path)


def load_model(path) -> tuple[dict[TypePair, ModelParams], dict[TypePair, int]]:
    """Reload a saved model, verifying version and content checksum."""
    text = read_text(path, ModelFormatError)
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
            values = {key: blk[key] for key in ("q_m", "q_s", "r", "mu0", "sigma0")}
            for key, value in values.items():
                odd = [x for x in np.ravel(np.array(value, dtype=object)) if type(x) not in (int, float)]
                if odd:  # a boolean is not a JSON number
                    raise ValueError(f"{key} must hold JSON numbers only, found {odd[0]!r}")
            params[pair] = ModelParams(d, *values.values())
            n_by_pair[pair] = n
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"{path}: block {k}: {exc}") from None
    return params, n_by_pair
