"""Edge-event parsing, time bucketing and model persistence.

File formats:

* events CSV, header ``timestamp,src,dst``; timestamps are decimal
  seconds relative to an arbitrary epoch.
* types CSV, header ``vertex,type``.
* model file: JSON with a format version, a content checksum and one
  entry per block ``{a, b, n, q_m, q_s, r, mu0, sigma0}``.

Ingest is columnar.  The CSV rows are streamed into three string
columns, converted in bulk into a float timestamp array and two int64
vertex-index arrays (:class:`EventColumns`), and bucketed by one
vectorised floor.  Repeats within a bucket are removed by sorting packed
``(t, lower vertex, higher vertex)`` int64 keys, which yields the
integer edge arrays of a :class:`~sdsbm.graph_model.DynamicNetwork`.
No Python object is made per event beyond the CSV reader's row.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import repeat
from operator import length_hint
from typing import Mapping

import numpy as np

from .graph_model import DynamicNetwork, TypePair, VertexTyping
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


def _parse_types(path) -> VertexTyping:
    vertex_ids: list[str] = []
    type_of: dict[str, str] = {}
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None or [c.strip() for c in header] != ["vertex", "type"]:
            raise IngestError(f"{path}: expected header 'vertex,type'")
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise IngestError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            vertex, label = row[0].strip(), row[1].strip()
            if not vertex or not label:
                raise IngestError(f"{path}:{lineno}: empty vertex or type")
            if vertex in type_of:
                raise IngestError(f"{path}:{lineno}: duplicate vertex {vertex!r}")
            vertex_ids.append(vertex)
            type_of[vertex] = label
    if not vertex_ids:
        raise IngestError(f"{path}: no vertices")
    return VertexTyping(vertex_ids=tuple(vertex_ids), type_of=type_of)


def _parse_events(path, typing: VertexTyping) -> EventColumns:
    """Stream the rows into three string columns, then convert each
    column in bulk.  When any row is bad, the first bad one in file
    order is reported, with the same checks in the same order as
    :func:`_event_error` applies them."""
    stamps: list[str] = []
    srcs: list[str] = []
    dsts: list[str] = []
    blank: list[int] = []  # number of 3-column rows read before each blank row
    odd_row = None  # the first row with neither 0 nor 3 columns
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None or [c.strip() for c in header] != ["timestamp", "src", "dst"]:
            raise IngestError(f"{path}: expected header 'timestamp,src,dst'")
        add_stamp, add_src, add_dst = stamps.append, srcs.append, dsts.append
        for row in rows:
            if len(row) == 3:
                add_stamp(row[0])
                add_src(row[1])
                add_dst(row[2])
            elif row:
                odd_row = row
                break
            else:
                blank.append(len(stamps))
    n = len(stamps)
    index = typing.vertex_index()
    src = np.fromiter(map(index.get, map(str.strip, srcs), repeat(-1)), np.int64, n)
    dst = np.fromiter(map(index.get, map(str.strip, dsts), repeat(-1)), np.int64, n)
    unread = iter(stamps)
    try:
        timestamp = np.fromiter(map(float, unread), float, n)
        first_bad = n
    except ValueError:
        # the list iterator stops just past the string float() rejected
        first_bad = n - 1 - length_hint(unread)
        timestamp = np.fromiter(map(float, stamps[:first_bad]), float, first_bad)
    bad = (src < 0) | (dst < 0) | (src == dst)
    bad[: timestamp.size] |= ~np.isfinite(timestamp)
    first_bad = min(first_bad, int(np.argmax(bad)) if bad.any() else n)
    if first_bad < n or odd_row is not None:
        lineno = first_bad + 2 + int(np.searchsorted(blank, first_bad, side="right"))
        if first_bad == n:
            raise IngestError(f"{path}:{lineno}: expected 3 columns, got {len(odd_row)}")
        raise _event_error(
            f"{path}:{lineno}", stamps[first_bad], srcs[first_bad], dsts[first_bad], index
        )
    return EventColumns(timestamp=timestamp, src=src, dst=dst)


def _event_error(where: str, stamp: str, src: str, dst: str, known) -> IngestError:
    """The error for one bad 3-column event row; the checks run in the
    order the row's fields are read, so the first failing one names it."""
    try:
        ts = float(stamp)
    except ValueError:
        return IngestError(f"{where}: bad timestamp {stamp!r}")
    if not math.isfinite(ts):
        return IngestError(f"{where}: non-finite timestamp")
    src, dst = src.strip(), dst.strip()
    if src == dst:
        return IngestError(f"{where}: self-loop event on vertex {src!r}")
    unknown = src if src not in known else dst
    return IngestError(f"{where}: vertex {unknown!r} has no type")


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
            params[pair] = ModelParams(
                d=d,
                q_m=blk["q_m"],
                q_s=blk["q_s"],
                r=blk["r"],
                mu0=np.array(blk["mu0"], dtype=float),
                Sigma0=np.array(blk["sigma0"], dtype=float),
            )
            n_by_pair[pair] = int(blk["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"{path}: block {k}: {exc}") from None
    return params, n_by_pair
