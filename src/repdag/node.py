"""The validator state machine.

One node owns one dag and one commit state. It reacts to three stimuli:
boot (create the genesis vertex), delivery of a vertex, and timer expiry.
Each handler runs to completion and returns the broadcasts and timer
requests it produced; all inter-node effects travel through the simulator.
Relaying a delivered vertex to the peers (the reliable-broadcast echo) is the
simulator's job too, as in Narwhal, where dissemination lives in the
transport: a node returns only the vertices it creates.
"""

from __future__ import annotations

from typing import Callable

from .commit import CommitState, commit_inserted
from .committee import Committee, ValidatorId
from .dag import INSERTED, MISSING_PARENTS, DagState, Vertex, VertexId
from .reputation import Schedule, ScheduleBook
from .traces import Tracer


class Effects:
    __slots__ = ("broadcasts", "timers")

    def __init__(self) -> None:
        self.broadcasts: list[Vertex] = []
        self.timers: list[int] = []


class Node:
    """A single validator. Crash is absorbing: no actions after it."""

    def __init__(
        self,
        me: ValidatorId,
        committee: Committee,
        genesis_schedule: Schedule,
        tracer: Tracer,
        leader_timeout: int,
        batch_size: int,
        round_cap: int,
        switch_span: int | None,
        exclusion_fraction: float,
        tx_supply: Callable[[ValidatorId, int], int],
    ):
        self.me = me
        self.committee = committee
        self.dag = DagState(committee)
        self.commit = CommitState(committee, ScheduleBook(genesis_schedule), switch_span, exclusion_fraction)
        self.tracer = tracer
        self.current_round = 0
        self.pending: dict[VertexId, Vertex] = {}
        self.backlog = 0  # transactions supplied but not yet in a vertex
        self.leader_wait_deadline: int | None = None
        self.crashed = False
        self.leader_timeout = leader_timeout
        self.batch_size = batch_size
        self.round_cap = round_cap
        self.tx_supply = tx_supply
        self._seen: set[VertexId] = set()

    # -- stimuli ---------------------------------------------------------

    def boot(self, now: int) -> Effects:
        effects = Effects()
        if self.crashed:
            return effects
        effects.broadcasts.append(self._make_vertex(0, now))
        return effects

    def on_deliver(self, v: Vertex, now: int) -> Effects:
        effects = Effects()
        if self.crashed:
            return effects
        if v.id in self._seen:
            # Reliable-broadcast integrity: duplicates change nothing.
            return effects
        self._seen.add(v.id)
        outcome = self.dag.insert(v)
        if outcome is INSERTED:
            self.tracer.emit("vertex-delivered", id=[v.round, v.source])
            inserted = [v, *self._drain_pending()] if self.pending else [v]
            commit_inserted(self.commit, self.dag, inserted, self.tracer)
        elif outcome is MISSING_PARENTS:
            self.pending[v.id] = v
        self._try_advance(now, effects)
        return effects

    def on_timer(self, now: int) -> Effects:
        effects = Effects()
        if self.crashed:
            return effects
        self._try_advance(now, effects)
        return effects

    # -- internals -------------------------------------------------------

    def _drain_pending(self) -> list[Vertex]:
        # Parents sit exactly one round below their child, so one pass in
        # (round, source) order inserts everything that can be inserted.
        drained: list[Vertex] = []
        for vid in sorted(self.pending):
            v = self.pending[vid]
            if self.dag.insert(v) is INSERTED:
                del self.pending[vid]
                drained.append(v)
                self.tracer.emit("vertex-delivered", id=[v.round, v.source])
        return drained

    def _try_advance(self, now: int, effects: Effects) -> None:
        """Advance rounds while the quorum and leader-wait rules allow it.

        At an even round with the anchor still missing, a deadline of
        ``leader_timeout`` ticks is armed once; the round is left either when
        the anchor arrives or when the deadline passes. Odd rounds advance on
        quorum alone.
        """
        by_round, quorum = self.dag.by_round, self.committee.quorum_threshold
        while self.current_round < self.round_cap:
            held = by_round.get(self.current_round, ())
            if len(held) < quorum:
                break
            if self.current_round % 2 == 0:
                leader = self.commit.book.leader_for(self.current_round)
                if leader not in held:
                    if self.leader_wait_deadline is None:
                        self.leader_wait_deadline = now + self.leader_timeout
                        effects.timers.append(self.leader_wait_deadline)
                        break
                    if now < self.leader_wait_deadline:
                        break
                    self.tracer.emit("leader-timeout", round=self.current_round)
            effects.broadcasts.append(self._make_vertex(self.current_round + 1, now))
            self.leader_wait_deadline = None
            self.current_round += 1

    def _make_vertex(self, round: int, now: int) -> Vertex:
        self.backlog += self.tx_supply(self.me, now)
        tx_count = min(self.batch_size, self.backlog)
        self.backlog -= tx_count
        # Via a tuple: a frozenset built from a dict presizes its table.
        parents = frozenset(tuple(self.dag.vertices_at(round - 1)))
        self.tracer.emit("vertex-created", id=[round, self.me], txCount=tx_count)
        return Vertex(VertexId(round, self.me), parents)
