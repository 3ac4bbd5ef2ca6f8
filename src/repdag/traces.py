"""Trace records: the persisted per-node audit log.

One JSON object per line, preceded by a header line that carries the format
version and names the node, so records do not repeat the node. Field names
are frozen; times are integer ticks. Everything the metrics and property
checkers need is recomputable from these files alone.
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


# One compact encoder for every line; ``json.dumps`` with ``separators``
# would build a new encoder per record.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class TraceInvalid(ValueError):
    """Persisted run input that is not a complete set of repdag traces."""


class Tracer:
    """Per-node record sink. ``now`` is kept current by the event loop."""

    def __init__(self, node: ValidatorId):
        self.node = node
        self.now = 0
        self.records: list[dict[str, Any]] = []

    def emit(self, kind: str, **payload: Any) -> None:
        rec = {"at": self.now, "kind": kind}
        rec.update(payload)
        self.records.append(rec)


def header_line(node: ValidatorId) -> str:
    return _encode({"format": TRACE_FORMAT, "version": TRACE_VERSION, "node": node})


def serialize(node: ValidatorId, records: list[dict[str, Any]]) -> str:
    lines = [header_line(node)]
    lines.extend(map(_encode, records))
    return "\n".join(lines) + "\n"


def parse(text: str) -> tuple[ValidatorId, list[dict[str, Any]]]:
    """Split a trace file into its header's node and its records.

    Raises ``TraceInvalid`` on a missing or foreign header and on a record
    that is not an object of a known kind.
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
    try:
        kinds = {rec["kind"] for rec in records}
    except (TypeError, KeyError):
        raise TraceInvalid("a record is not an object with a hashable 'kind'") from None
    if not kinds <= RECORD_KINDS:
        raise TraceInvalid(f"unknown record kinds: {sorted(map(str, kinds - RECORD_KINDS))}")
    return header["node"], records
