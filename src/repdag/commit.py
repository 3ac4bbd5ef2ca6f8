"""The ordering engine: the commit pass after each insert, direct commits,
anchor back-chaining, history ordering, and schedule-switch triggering.

Commit decisions depend only on dag content plus the schedule book, both of
which all honest nodes agree on (eventually for content, by induction for the
book), so replicas produce identical commit logs no matter how deliveries
interleave. That log is kept only in the ``anchor-committed`` records.

Each anchor round is decided once: committed directly, committed by
back-chaining from a later anchor, or skipped. Once ``last_ordered_round``
has passed a round, a later certifier of that round's anchor is not looked at.

The delicate part is a schedule switch that lands in the middle of ordering
a back-chained run of anchors. Anchors still waiting in the chain live at
rounds the new schedule now governs, so each one is re-validated against the
current book before it is ordered and silently discarded if its round's
leader changed. Discards do not advance ``last_ordered_round``; otherwise the
new leader's vertex for a discarded round could never be committed
retroactively and replicas that switched earlier would diverge.
"""

from __future__ import annotations

from .committee import Committee, ValidatorId
from .dag import DagState, Vertex, VertexId, causal_history, path
from .reputation import Schedule, ScheduleBook, build_next_schedule, compute_scores, get_anchor
from .traces import Tracer


class CommitState:
    """Per-node ordering state. Never shared across nodes. It keeps no copy of
    the commit log; ``ordered_sources`` is the log's only in-memory index."""

    def __init__(
        self, committee: Committee, book: ScheduleBook, switch_span: int | None, exclusion_fraction: float
    ):
        self.committee = committee
        self.book = book
        self.switch_span = switch_span
        self.exclusion_fraction = exclusion_fraction
        # The ordered vertices per round, as a bitmask of their sources.
        self.ordered_sources: dict[int, int] = {}
        self.last_ordered_round = 0
        self.discarded_anchors: list[VertexId] = []


def commit_inserted(state: CommitState, dag: DagState, inserted: list[Vertex], tracer: Tracer) -> None:
    """The commit pass after an insert: each inserted vertex, in order, may
    commit the anchor it certifies, and a schedule switch that this causes
    re-checks the dag through :func:`retro_recheck`.

    ``inserted`` is in (round, source) order: a delivered vertex first, then
    the buffered ones it unblocked, which all descend from it.
    """
    schedules = state.book.schedules
    for v in inserted:
        if v.round % 2:
            continue
        epochs_before = len(schedules)
        try_committing(state, dag, v, tracer)
        if len(schedules) != epochs_before:
            retro_recheck(state, dag, tracer)


def try_committing(state: CommitState, dag: DagState, v: Vertex, tracer: Tracer) -> int | None:
    """Direct-commit check for a freshly inserted vertex.

    Returns the anchor round when at least f+1 of the vertex's parents vote
    for the anchor two rounds below (see :func:`anchor_votes`), else None.
    Odd rounds commit nothing, and neither does a vertex whose anchor round
    is already decided (at or below ``last_ordered_round``, genesis included).
    """
    if v.round % 2 == 1 or v.round - 2 <= state.last_ordered_round:
        return None
    anchor = get_anchor(dag, state.book, v.round - 2)
    if anchor is None:
        return None
    if anchor_votes(dag, v, anchor.id) < state.committee.commit_threshold:
        return None
    order_anchors(state, dag, anchor, tracer)
    return anchor.round


def anchor_votes(dag: DagState, v: Vertex, anchor: VertexId) -> int:
    """How many parents of the inserted vertex ``v`` link to ``anchor``.

    The parents sit one round above the anchor, so a parent has a path to
    the anchor iff it names the anchor's source: the direct links are the
    votes.
    """
    row, mask, a = dag.vertices_at(v.round - 1), v.mask, anchor.source
    return sum(row[s].mask >> a & 1 for s in range(mask.bit_length()) if mask >> s & 1)


def order_anchors(state: CommitState, dag: DagState, anchor: Vertex, tracer: Tracer) -> None:
    """Chain backwards from a directly committed anchor and order everything.

    ``anchor`` sits above ``last_ordered_round`` (see :func:`try_committing`).
    Walks the even rounds below it down to, but not including, the last
    ordered round, and chains every prior anchor reachable from the newest
    element of the chain. The chain, newest first, goes to
    :func:`order_history`.
    """
    chain = [anchor]
    for r in range(anchor.round - 2, state.last_ordered_round, -2):
        prev = get_anchor(dag, state.book, r)
        if prev is not None and path(dag, chain[-1].id, prev.id):
            chain.append(prev)
    order_history(state, dag, chain, tracer)


def order_history(state: CommitState, dag: DagState, chain: list[Vertex], tracer: Tracer) -> None:
    """Order the causal history of each anchor in ``chain``, oldest first.

    ``chain`` is newest first; its head is the directly committed anchor.
    Every anchor is re-validated against the current book right before it is
    ordered (see module docstring). After ordering, the anchor may trigger a
    schedule switch; the rest of the chain is then ordered under the new
    schedule. Ordered vertices are downward closed (histories are ordered
    atomically), so a walk that skips ``ordered_sources`` stops at the first
    ordered ancestor. Its rows, read bottom-up, are in (round, source) order
    and fill the anchor's ``anchor-committed`` record, the log's one copy.
    """
    sources = state.ordered_sources
    for anchor in reversed(chain):
        if state.book.leader_for(anchor.round) != anchor.source:
            state.discarded_anchors.append(anchor.id)
            continue
        history = []
        for row in reversed(causal_history(dag, anchor.id, exclude=sources)):
            mask = 0
            for u in row:
                history.append(u.id)
                mask |= 1 << u.source
            sources[row[0].round] = sources.get(row[0].round, 0) | mask
        state.last_ordered_round = anchor.round
        tracer.emit(
            "anchor-committed",
            round=anchor.round,
            leader=anchor.source,
            direct=anchor is chain[0],
            ordered=history,
        )
        switch = update_schedule(state, dag, anchor)
        if switch is not None:
            schedule, scores = switch
            state.book.append(schedule)
            tracer.emit(
                "schedule-switched",
                epoch=schedule.epoch,
                initialRound=schedule.initial_round,
                slots=list(schedule.slots),
                scores={str(v): p for v, p in sorted(scores.items())},
            )


def update_schedule(
    state: CommitState, dag: DagState, anchor: Vertex
) -> tuple[Schedule, dict[ValidatorId, int]] | None:
    """Score the closing epoch and build its successor schedule.

    Returns the successor and its scores, or None unless a switch is due: the
    mode switches at all and the just-ordered ``anchor`` sits at least
    ``switch_span`` rounds past the active schedule's start. Scores cover
    rounds from the active schedule's start up to, but not including, the
    triggering anchor's round. The successor takes effect at the next anchor
    round after the trigger.
    """
    active = state.book.active
    if state.switch_span is None or anchor.round < active.initial_round + state.switch_span:
        return None
    scores = compute_scores(dag, state.book, active.initial_round, anchor.round)
    successor = build_next_schedule(
        active, scores, state.committee, state.exclusion_fraction, anchor.round + 2
    )
    return successor, scores


def retro_recheck(state: CommitState, dag: DagState, tracer: Tracer) -> None:
    """Re-run the commit rule after a schedule switch changed leaders.

    Vertices already in the dag at rounds the new schedule governs may now
    certify a different anchor, so each even-round vertex above the switch
    point gets another pass. A pass can itself switch schedules, in which
    case the sweep restarts from the newer switch point.
    """
    while True:
        epochs_before = state.book.epoch_count
        for v in dag.even_vertices_from(state.book.active.initial_round):
            try_committing(state, dag, v, tracer)
        if state.book.epoch_count == epochs_before:
            return
