"""Trace records: the persisted per-node audit log.

One JSON object per line, preceded by a header line that carries the format
version and names the node, so records do not repeat the node. Field names
are frozen; times are integer ticks. Everything the metrics and property
checkers need is recomputable from these files alone.

A record names a vertex by a ``(round, source)`` tuple, the vertex's own
``VertexId`` in memory. JSON writes it as a ``[round, source]`` list, and
``parse`` turns it back into a tuple shared by every record that names the
vertex, so a parsed id is hashable and held once.
"""

from __future__ import annotations

import json
from typing import Any

from .committee import ValidatorId

TRACE_FORMAT = "repdag-trace"
TRACE_VERSION = 3

RECORD_KINDS = frozenset(
    {
        "vertex-created",
        "vertex-delivered",
        "leader-timeout",
        "anchor-committed",
        "schedule-switched",
    }
)
# Each kind maps to itself, so one lookup both validates a parsed record's
# kind and swaps in the one shared string: the json decoder shares repeated
# keys but gives each value its own copy.
_KINDS = {kind: kind for kind in RECORD_KINDS}
# The kinds whose ``id`` names a vertex.
_VERTEX_KINDS = frozenset({"vertex-created", "vertex-delivered"})


# One compact encoder for every file; ``json.dumps`` with ``separators``
# would build a new encoder per call. Records are acyclic by construction,
# so the encoder skips its per-container cycle bookkeeping.
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
# Where one record ends and the next begins in the encoding of a record list:
# every record opens with "at", and no record holds a list of objects.
_BETWEEN, _BETWEEN_LINES = '},{"at":', '}\n{"at":'
# Records per encoder call. The encoder holds every piece of its output until
# it joins them, about 0.5 kB per record; a batch bounds that, at a small cost
# in calls.
_BATCH = 128


class TraceInvalid(ValueError):
    """Persisted run input that is not a complete set of repdag traces."""


def _is_integer(x: object) -> bool:
    """An int, or a float or bool equal to one, as ``1.0`` and ``True`` equal ``1``."""
    return type(x) is int or type(x) is bool or type(x) is float and x.is_integer()


class VertexIds(dict):
    """The vertex ids of parsed traces, each mapped to one shared int tuple.

    Looking up a ``(round, source)`` tuple gives the one shared tuple of that
    vertex. A key seen for the first time is checked: a non-pair raises
    ``ValueError`` and a pair that is not two integers ``TypeError``. The
    check goes by value, as the lookup does: ``(1.0, 2)`` and ``(True, 2)``
    equal ``(1, 2)``, so all three name that vertex, whichever comes first.
    """

    def __missing__(self, key: tuple[int, int]) -> tuple[int, int]:
        r, s = key
        if type(r) is not int or type(s) is not int:
            if not (_is_integer(r) and _is_integer(s)):
                raise TypeError(f"vertex id {list(key)!r} is not two integers")
            key = int(r), int(s)
        self[key] = key
        return key


class Tracer:
    """Per-node record sink. ``now`` is kept current by the event loop."""

    def __init__(self, node: ValidatorId):
        self.node = node
        self.now = 0
        self.records: list[dict[str, Any]] = []

    def emit(self, kind: str, **payload: Any) -> None:
        self.records.append({"at": self.now, "kind": kind, **payload})


def header_line(node: ValidatorId) -> str:
    return _encode({"format": TRACE_FORMAT, "version": TRACE_VERSION, "node": node})


def serialize(node: ValidatorId, records: list[dict[str, Any]]) -> str:
    """A trace file: the header line, then one line per record.

    Each batch of records is encoded in one encoder call and split into lines
    between records. Raises ``ValueError`` where that split would not give one
    line per record: a record that does not open with "at", or one that holds
    a list of objects that do.
    """
    lines = [header_line(node)]
    for start in range(0, len(records), _BATCH):
        batch = records[start : start + _BATCH]
        body = _encode(batch)[1:-1]
        if body.count(_BETWEEN) != len(batch) - 1:
            raise ValueError(f"{len(batch)} records do not split into as many lines")
        lines.append(body.replace(_BETWEEN, _BETWEEN_LINES))
    return "\n".join(lines) + "\n"


def parse(text: str, ids: VertexIds | None = None) -> tuple[ValidatorId, list[dict[str, Any]]]:
    """Split a trace file into its header's node and its records.

    Each vertex id, the ``id`` of a vertex record or an entry of an
    ``ordered`` list, becomes the tuple ``ids`` holds for it; a fresh table
    is used when none is given. Raises ``TraceInvalid`` on a missing or
    foreign header, on a record that is not an object of a known kind, and
    on a missing, mistyped or non-pair vertex id. A float or boolean
    component equal to an int reads as that int, wherever it appears.
    """
    lines = text.splitlines()
    if not lines:
        raise TraceInvalid("empty trace file")
    header = json.loads(lines[0])
    if (
        not isinstance(header, dict)
        or header.get("format") != TRACE_FORMAT
        or header.get("version") != TRACE_VERSION
        or type(header.get("node")) is not int
    ):
        raise TraceInvalid(f"unrecognized trace header: {lines[0]!r}")
    # One decoder call for the whole file is about twice as fast as one per
    # line; the count check still rejects lines that do not add up to one
    # record each.
    records = json.loads("[" + ",".join(lines[1:]) + "]")
    if len(records) != len(lines) - 1:
        raise TraceInvalid(f"{len(lines) - 1} record lines hold {len(records)} records")
    kinds, vertex = _KINDS, _VERTEX_KINDS
    committed = kinds["anchor-committed"]
    intern = (VertexIds() if ids is None else ids).__getitem__
    try:
        for rec in records:
            kind = rec["kind"] = kinds[rec["kind"]]
            if kind in vertex:
                rec["id"] = intern(tuple(rec["id"]))
            elif kind is committed:
                rec["ordered"] = list(map(intern, map(tuple, rec["ordered"])))
    except (TypeError, KeyError, ValueError) as exc:
        try:
            unknown = {rec["kind"] for rec in records} - RECORD_KINDS
        except (TypeError, KeyError):
            raise TraceInvalid("a record is not an object with a hashable 'kind'") from None
        if unknown:
            raise TraceInvalid(f"unknown record kinds: {sorted(map(str, unknown))}") from None
        raise TraceInvalid(f"a record lacks a vertex id or holds a malformed one: {exc!r}") from None
    return header["node"], records
