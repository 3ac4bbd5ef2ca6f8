"""Per-validator DAG storage and structural queries.

A vertex is keyed by (round, source): reliable-broadcast integrity guarantees
at most one vertex per key in honest views, which lets us skip content
digests entirely. A vertex's parents all sit one round below it, so it names
them by source alone, and all of them in one bitmask: that mask is the only
record of its parents. The store enforces causal completeness: a vertex is
only inserted once every parent it names is present. The store keeps a mask
of the sources it holds per round, so that test is one integer operation
however large the committee.
The history walk steps down those masks: a round's frontier is one integer,
and its bits, read from the lowest up, give the round's row in source order.
"""

from __future__ import annotations

import enum
from typing import Mapping, NamedTuple

from .committee import Committee, ValidatorId
from .frozen import Frozen


class VertexId(NamedTuple):
    round: int
    source: ValidatorId


class Vertex(Frozen):
    """A DAG vertex; its shape is checked once, here, for every receiver.

    Raises ``ValueError`` for a negative round, source or mask, or a genesis
    vertex with parents; a parent cannot sit at a wrong round, as it is named
    by source. ``mask`` holds its parents: bit s is set iff source s, one
    round below, is one. ``round`` and ``source`` are denormalized from
    ``id``; plain fields keep the hot paths cheap.
    """

    __slots__ = ("id", "mask", "round", "source")

    def __init__(self, id: VertexId, mask: int):
        r, source = id
        if r < 0 or source < 0 or mask < 0 or (r == 0 and mask):
            raise ValueError(f"malformed vertex {id}: parent mask {mask:#x}")
        _set_id(self, id)
        _set_mask(self, mask)
        _set_round(self, r)
        _set_source(self, source)


# The slots' own setters: every created vertex is built once, and calling
# these costs less than ``object.__setattr__``, which looks each slot up.
_set_id, _set_mask, _set_round, _set_source = (Vertex.__dict__[name].__set__ for name in Vertex.__slots__)


class InsertOutcome(enum.Enum):
    INSERTED = "inserted"
    MISSING_PARENTS = "missing-parents"
    DUPLICATE = "duplicate"
    MALFORMED_EDGES = "malformed-edges"


# The members as module constants: a global read is several times cheaper
# than an enum attribute lookup, and the hot paths read one per copy.
INSERTED, MISSING_PARENTS, DUPLICATE, MALFORMED_EDGES = InsertOutcome


class UnknownVertex(KeyError):
    pass


class DagState:
    """One node's view of the DAG, indexed by round then source."""

    def __init__(self, committee: Committee):
        self.committee = committee
        # The committee is frozen; insert reads these on every copy.
        self._n, self._quorum = committee.n, committee.quorum_threshold
        self.by_round: dict[int, dict[ValidatorId, Vertex]] = {}
        # Per round, the sources held there as a bitmask (bit s for source s).
        self.held: dict[int, int] = {}
        self.highest_round = -1

    def __contains__(self, vid: VertexId) -> bool:
        return vid.source in self.by_round.get(vid.round, ())

    def get(self, vid: VertexId) -> Vertex | None:
        return self.by_round.get(vid.round, {}).get(vid.source)

    def vertices_at(self, round: int) -> dict[ValidatorId, Vertex]:
        return self.by_round.get(round, {})

    def even_vertices_from(self, round: int) -> list[Vertex]:
        """Even-round vertices with round >= the given bound, (round, source) ascending."""
        out: list[Vertex] = []
        for r in range(round + round % 2, self.highest_round + 1, 2):
            row = self.by_round.get(r)
            if row:
                out.extend(row[s] for s in sorted(row))
        return out

    def insert(self, v: Vertex) -> InsertOutcome:
        """Insert ``v`` if it has quorum parents and is causally complete.

        MALFORMED_EDGES means a non-genesis vertex with fewer than quorum
        parents, or a source or parent id outside the committee; the rest of
        its shape was checked when it was built. MISSING_PARENTS means the
        caller should buffer and retry once the parents arrive; DUPLICATE
        signals reliable-broadcast integrity handling (same id already
        present).
        """
        r, source, mask, n = v.round, v.source, v.mask, self._n
        if source >= n or mask >> n or (r and mask.bit_count() < self._quorum):
            return MALFORMED_EDGES
        row = self.by_round.get(r)
        if row is not None and source in row:
            return DUPLICATE
        held = self.held
        if mask & ~held.get(r - 1, 0):
            return MISSING_PARENTS
        if row is None:
            row = self.by_round[r] = {}
        row[source] = v
        held[r] = held.get(r, 0) | 1 << source
        if r > self.highest_round:
            self.highest_round = r
        return INSERTED


def path(dag: DagState, frm: VertexId, to: VertexId) -> bool:
    """True iff a parent chain leads from ``frm`` down to ``to``.

    A single vertex counts as a chain, so ``path(v, v)`` is true. Each hop
    drops one round, so the walk stops at ``to``'s round, its last row.
    """
    rows = causal_history(dag, frm, min_round=to.round)
    return bool(rows) and any(u.id == to for u in rows[-1])


class AnchorReach:
    """Every vertex up to ``max_round`` with a path to one target vertex.

    Scans upward from the target: a vertex reaches it iff its parent mask
    meets the sources that reach it one round below. A cross-check of
    :func:`path`; the commit rule counts direct parent links instead.
    """

    def __init__(self, dag: DagState, target: VertexId, max_round: int):
        # Per round, the sources that reach the target, as a bitmask.
        self._reached = reached = {target.round: 1 << target.source}
        for r in range(target.round + 1, max_round + 1):
            layer = sum(1 << s for s, v in dag.vertices_at(r).items() if v.mask & reached[r - 1])
            if not layer:
                break
            reached[r] = layer

    def covers(self, vid: VertexId) -> bool:
        return bool(self._reached.get(vid.round, 0) >> vid.source & 1)


def causal_history(
    dag: DagState, anchor: VertexId, min_round: int = 0, exclude: Mapping[int, int] = {}
) -> list[list[Vertex]]:
    """The vertices reachable from ``anchor`` (itself included) at round >= min_round,
    as rows: one per round from the anchor's down, each in ascending source order.

    ``exclude`` maps a round to a bitmask of sources the walk does not enter.
    For a downward-closed ``exclude``, such as the vertices a node has already
    ordered, the rows are the history minus ``exclude``; no row is empty.
    """
    v = dag.get(anchor)
    if v is None:
        raise UnknownVertex(anchor)
    r = anchor.round
    if r < min_round or exclude.get(r, 0) >> anchor.source & 1:
        return []
    rows, frontier, by_round = [[v]], v.mask, dag.by_round
    for r in range(r - 1, min_round - 1, -1):
        frontier &= ~exclude.get(r, 0)
        if not frontier:
            break
        store = by_round[r]
        row = [store[s] for s in range(frontier.bit_length()) if frontier >> s & 1]
        rows.append(row)
        frontier = 0
        for u in row:
            frontier |= u.mask
    return rows
