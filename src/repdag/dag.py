"""Per-validator DAG storage and structural queries.

A vertex is keyed by (round, source): reliable-broadcast integrity guarantees
at most one vertex per key in honest views, which lets us skip content
digests entirely. A vertex's parents all sit one round below it, so it names
them by source alone. The store enforces causal completeness: a vertex is only
inserted once every parent it names is present. Each vertex carries its parent
sources as a bitmask too, and the store keeps one of the sources it holds per
round, so that test is one integer operation however large the committee.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Container, NamedTuple

from .committee import Committee, ValidatorId


class VertexId(NamedTuple):
    round: int
    source: ValidatorId


@dataclass(frozen=True, slots=True)
class Vertex:
    """A DAG vertex; its shape is checked once, here, for every receiver.

    Raises ``ValueError`` for a negative round, a genesis vertex with parents
    or a negative source or parent; a parent cannot sit at a wrong round, as it
    is named by source.
    """

    id: VertexId
    parents: frozenset[ValidatorId]
    # Denormalized from id; plain fields keep the hot paths cheap.
    round: int = field(init=False)
    source: ValidatorId = field(init=False)
    # Bit s is set iff source s is a parent.
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (r, source), parents = self.id, self.parents
        if r < 0 or source < 0 or (r == 0 and parents) or (parents and min(parents) < 0):
            raise ValueError(f"malformed vertex {self.id}: parents {sorted(parents)}")
        mask = 0
        for s in parents:
            mask |= 1 << s
        object.__setattr__(self, "round", r)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "mask", mask)


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
        n = self.committee.n
        if v.source >= n or v.mask >> n or (v.round and len(v.parents) < self.committee.quorum_threshold):
            return MALFORMED_EDGES
        row = self.by_round.get(v.round)
        if row is not None and v.source in row:
            return DUPLICATE
        held = self.held
        if v.mask & ~held.get(v.round - 1, 0):
            return MISSING_PARENTS
        if row is None:
            row = self.by_round[v.round] = {}
        row[v.source] = v
        held[v.round] = held.get(v.round, 0) | 1 << v.source
        if v.round > self.highest_round:
            self.highest_round = v.round
        return INSERTED


def path(dag: DagState, frm: VertexId, to: VertexId) -> bool:
    """True iff a parent chain leads from ``frm`` down to ``to``.

    A single vertex counts as a chain, so ``path(v, v)`` is true. Each hop
    drops exactly one round, so nothing below ``to``'s round can lead to it.
    """
    return to in causal_history(dag, frm, min_round=to.round)


class AnchorReach:
    """Every vertex up to ``max_round`` with a path to one target vertex.

    Scans the store upward one round at a time from the target: a vertex
    reaches the target iff one of the parents it names does. Answers
    membership queries in O(1) and is equivalent to calling :func:`path` per
    query. The commit rule no longer uses it (direct parent links decide its
    votes, see ``commit.anchor_votes``); it stays as a cross-check of
    :func:`path`.
    """

    def __init__(self, dag: DagState, target: VertexId, max_round: int):
        self.target = target
        reached = {target}
        layer = {target.source}
        for r in range(target.round + 1, max_round + 1):
            row = dag.vertices_at(r)
            layer = {s for s, v in row.items() if not layer.isdisjoint(v.parents)}
            if not layer:
                break
            reached.update(row[s].id for s in layer)
        self._reached = reached

    def covers(self, vid: VertexId) -> bool:
        return vid in self._reached


def causal_history(
    dag: DagState, anchor: VertexId, min_round: int = 0, exclude: Container[VertexId] = frozenset()
) -> set[VertexId]:
    """All vertices reachable from ``anchor`` (itself included) at round >= min_round.

    The walk steps down a round at a time and does not enter ``exclude``. For
    a downward-closed ``exclude``, such as the vertices a node has already
    ordered, the result is the history minus ``exclude``.
    """
    v = dag.get(anchor)
    if v is None:
        raise UnknownVertex(anchor)
    if anchor in exclude or anchor.round < min_round:
        return set()
    out = {v.id}
    frontier = [v]
    for r in range(anchor.round - 1, min_round - 1, -1):
        row = dag.vertices_at(r)
        # A list, not a generator: unpacking one strands a tuple per call.
        frontier = [row[s] for s in set().union(*[u.parents for u in frontier])]
        frontier = [u for u in frontier if u.id not in exclude]
        if not frontier:
            break
        out.update(u.id for u in frontier)
    return out
