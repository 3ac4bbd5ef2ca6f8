"""The validator state machine.

One node owns one dag and one commit state. It reacts to three stimuli:
boot (create the genesis vertex), delivery of a vertex, and timer expiry.
Each handler runs to completion and returns the broadcasts and timer
requests it produced as an ``Effects``, or None when it produced neither (a
duplicate, a copy to a crashed node, and most deliveries, which only fill a
DAG row); all inter-node effects travel through the simulator.
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
        self._quorum = committee.quorum_threshold
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

    def boot(self, now: int) -> Effects | None:
        if self.crashed:
            return None
        effects = Effects()
        effects.broadcasts.append(self._make_vertex(0, now))
        return effects

    def on_deliver(self, v: Vertex, now: int) -> Effects | None:
        if self.crashed:
            return None
        vid, seen = v.id, self._seen
        if vid in seen:
            # Reliable-broadcast integrity: duplicates change nothing.
            return None
        seen.add(vid)
        dag = self.dag
        outcome = dag.insert(v)
        if outcome is INSERTED:
            r = v.round
            self.tracer.emit("vertex-delivered", id=vid)
            if self.pending and (drained := self._drain_pending()):
                commit_inserted(self.commit, dag, [v, *drained], self.tracer)
            elif not r % 2 and r - 2 > self.commit.last_ordered_round:
                # A lone vertex can commit only past the first test of
                # commit.try_committing, repeated here to spare the call.
                commit_inserted(self.commit, dag, [v], self.tracer)
        elif outcome is MISSING_PARENTS:
            self.pending[vid] = v
        # The first test of _try_advance's loop: below quorum it does nothing.
        if len(dag.by_round.get(self.current_round, ())) < self._quorum:
            return None
        return self._try_advance(now)

    def on_timer(self, now: int) -> Effects | None:
        if self.crashed:
            return None
        return self._try_advance(now)

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
                self.tracer.emit("vertex-delivered", id=vid)
        return drained

    def _try_advance(self, now: int) -> Effects | None:
        """Advance rounds while the quorum and leader-wait rules allow it.

        At an even round with the anchor still missing, a deadline of
        ``leader_timeout`` ticks is armed once; the round is left either when
        the anchor arrives or when the deadline passes. Odd rounds advance on
        quorum alone. Returns the vertices created and the deadline armed, or
        None if there are neither.
        """
        by_round, quorum, effects = self.dag.by_round, self._quorum, None
        while self.current_round < self.round_cap:
            held = by_round.get(self.current_round, ())
            if len(held) < quorum:
                break
            if self.current_round % 2 == 0:
                leader = self.commit.book.leader_for(self.current_round)
                if leader not in held:
                    if self.leader_wait_deadline is None:
                        self.leader_wait_deadline = now + self.leader_timeout
                        effects = effects or Effects()
                        effects.timers.append(self.leader_wait_deadline)
                        break
                    if now < self.leader_wait_deadline:
                        break
                    self.tracer.emit("leader-timeout", round=self.current_round)
            effects = effects or Effects()
            effects.broadcasts.append(self._make_vertex(self.current_round + 1, now))
            self.leader_wait_deadline = None
            self.current_round += 1
        return effects

    def _make_vertex(self, round: int, now: int) -> Vertex:
        self.backlog += self.tx_supply(self.me, now)
        tx_count = min(self.batch_size, self.backlog)
        self.backlog -= tx_count
        # One id, shared by the vertex and every record that names it.
        vid = VertexId(round, self.me)
        self.tracer.emit("vertex-created", id=vid, txCount=tx_count)
        return Vertex(vid, self.dag.held.get(round - 1, 0))
