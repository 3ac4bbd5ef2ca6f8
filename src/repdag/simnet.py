"""Deterministic discrete-event network simulator.

Partial synchrony: any message sent at time x arrives by Delta + max(GST, x).
Before GST the adversary policy decides delays (either held until GST or a
seeded random delay, clamped to the bound); after GST delays are seeded
uniform in [1, Delta]. Time is integer ticks, events execute in (time, seq)
order, and the whole run is a pure function of the config, so identical
configs give bit-identical traces.

Every receiver echoes a vertex to all peers, but a copy is queued only when
it can change its receiver: copies that would land at or after the
receiver's crash, or at or after another copy of the same vertex already
headed there, are never queued. Every copy's delay is drawn (an echo that
can queue none just advances the random stream by its draws), so the stream
and the traces do not depend on this. After GST with Delta 1 every draw
would be 0, so none is made: time never goes back and the stream feeds only
delivery delays, so no later draw can tell.

A queued copy can still be overtaken by a faster echo queued after it
(Delta >= 2). When it pops, its target has already seen the vertex, so it is
retired without running. ``events_executed`` counts only events that can
act, and ``now`` after a drained run is the tick of the last of them.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, NamedTuple

from .committee import Committee, ValidatorId, new_committee
from .config import SimConfig
from .dag import Vertex, VertexId
from .node import Node
from .reputation import initial_schedule
from .traces import Tracer

# Event kinds; crash sorts before boot at equal (time, seq) by construction,
# because fault-plan events are enqueued first.
CRASH, BOOT, DELIVER, TIMER = 0, 1, 2, 3
# A tick later than any run reaches: "no crash" and "no copy yet".
_NEVER = 1 << 62


class SimEvent(NamedTuple):
    at: int
    seq: int
    kind: int
    target: ValidatorId
    vertex: Vertex | None


def client_supply(crash_at: list[int], rate: int, node: ValidatorId, now: int) -> int:
    """Transactions a live validator's clients hand it for one vertex at ``now``.

    Each validator carries one client producing ``rate`` transactions per
    vertex it creates. A crashed validator's client re-attaches to the next
    live validator by id, wrapping around, so the offered load stays n * rate
    per round regardless of faults: ``node`` serves its own client and those
    of the validators crashed at or before ``now`` directly below it.
    """
    n = len(crash_at)
    clients = 1
    while clients < n and crash_at[node - clients] <= now:
        clients += 1
    return clients * rate


@dataclass
class RunResult:
    config: SimConfig
    committee: Committee
    nodes: list[Node]
    tracers: list[Tracer]
    end_time: int
    events_executed: int

    @property
    def records_by_node(self) -> dict[ValidatorId, list[dict[str, Any]]]:
        return {t.node: t.records for t in self.tracers}


class Simulation:
    """Single-threaded event loop owning every node state."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.committee = new_committee(list(cfg.stakes))
        genesis = initial_schedule(self.committee, cfg.seed, cfg.slot_length)
        self.rng = random.Random(cfg.seed)
        self._seq = 0
        self._queue: list[SimEvent] = []
        self._crash_at = [_NEVER] * self.committee.n
        for validator, crash_at in cfg.fault_plan:
            self._crash_at[validator] = crash_at
            self._push(crash_at, CRASH, validator, None)
        # A partial, not a bound method: a node holding the simulation would
        # make a cycle that keeps each finished run alive until a full GC.
        supply = partial(client_supply, self._crash_at, cfg.tx_rate_per_node)
        self.tracers = [Tracer(v) for v in self.committee.members]
        round_cap = cfg.max_round if cfg.max_round is not None else 10**9
        self.nodes = [
            Node(
                me=v,
                committee=self.committee,
                genesis_schedule=genesis,
                tracer=self.tracers[v],
                leader_timeout=cfg.leader_timeout,
                batch_size=cfg.batch_size,
                round_cap=round_cap,
                switch_span=cfg.switch_span,
                exclusion_fraction=cfg.exclusion_fraction,
                tx_supply=supply,
            )
            for v in self.committee.members
        ]
        self.now = 0
        self.events_executed = 0
        # Per vertex with copies in flight: per peer, the earliest tick a copy
        # lands (queued or executed) or it crashes; and the copies queued.
        self._arrivals: dict[VertexId, list[int]] = {}
        self._in_flight: dict[VertexId, int] = {}
        for v in self.committee.members:
            self._push(0, BOOT, v, None)

    def _push(self, at: int, kind: int, target: int, vertex: Vertex | None) -> None:
        heapq.heappush(self._queue, SimEvent(at, self._seq, kind, target, vertex))
        self._seq += 1

    def _delivery_time(self, now: int) -> int:
        return self._delivery_times(now, 1)[0]

    def _delivery_times(self, now: int, copies: int) -> list[int]:
        """Landing ticks of ``copies`` copies sent at ``now``, in draw order."""
        gst, delta = self.cfg.gst, self.cfg.delta
        rand = self.rng.random
        if now >= gst:
            if delta == 1:
                return [now + 1] * copies
            return [now + 1 + int(rand() * delta) for _ in range(copies)]
        if self.cfg.pre_gst_policy == "hold":
            return [gst + 1 + int(rand() * delta) for _ in range(copies)]
        pre_max = max(1, int(self.cfg.pre_gst_policy.split(":", 1)[1]))
        # The adversary may stretch delivery, never past the synchrony bound.
        return [
            min(max(gst, now + 1 + int(rand() * pre_max)) + 1 + int(rand() * delta), gst + delta)
            for _ in range(copies)
        ]

    def broadcast(self, sender: ValidatorId, v: Vertex, now: int) -> None:
        """Send ``v`` to every peer, queueing only the copies that can act.

        A copy is dropped when its peer crashes at or before it lands (crash
        events are queued first, so they pop first) or when a copy of ``v``
        already lands there at or before it (that copy pops first, so this
        one would hit ``_seen``). An echo whose every copy would be dropped
        only advances the random stream by the draws it skips.
        """
        arrivals = self._arrivals.get(v.id)
        if arrivals is None:
            arrivals = self._arrivals[v.id] = self._crash_at.copy()
        elif max(arrivals) <= max(now, self.cfg.gst) + 1:
            # An echo (its sender's copy landed at ``now``): no copy lands before
            # max(now, GST) + 1, so none is queued. random() takes two 32-bit
            # words; getrandbits(64 * k) takes exactly 2 * k.
            pre_gst = 1 if self.cfg.pre_gst_policy == "hold" else 2
            draws = (self.cfg.delta > 1) if now >= self.cfg.gst else pre_gst
            self.rng.getrandbits(64 * (self.committee.n - 1) * draws)
            return
        ticks = self._delivery_times(now, self.committee.n - 1)
        ticks.insert(sender, now)
        push, seq, queue = heapq.heappush, self._seq, self._queue
        for peer, at in enumerate(ticks):
            if at < arrivals[peer]:
                arrivals[peer] = at
                push(queue, SimEvent(at, seq, DELIVER, peer, v))
                seq += 1
        self._in_flight[v.id] = self._in_flight.get(v.id, 0) + seq - self._seq
        self._seq = seq

    def step(self) -> SimEvent | None:
        """Pop and handle the next event; None once the queue is empty.

        A delivery whose target already has an earlier copy of the vertex
        was overtaken: it is retired without running, without moving ``now``
        and without counting in ``events_executed``, and it is still
        returned. So a returned ``DELIVER`` may not have run: it ran exactly
        when ``events_executed`` grew across the call. Only Delta >= 2 runs
        have overtaken copies.
        """
        if not self._queue:
            return None
        ev = heapq.heappop(self._queue)
        if ev.kind == DELIVER and self._arrivals[ev.vertex.id][ev.target] < ev.at:
            self._retire(ev.vertex.id)
            return ev
        self.now = ev.at
        self.events_executed += 1
        node = self.nodes[ev.target]
        if ev.kind == CRASH:
            node.crashed = True
            return ev
        if node.crashed:
            # Timers to crashed nodes are dropped at execution; deliveries to
            # them are never queued.
            return ev
        self.tracers[ev.target].now = ev.at
        if ev.kind == DELIVER:
            effects = node.on_deliver(ev.vertex, ev.at)
        elif ev.kind == TIMER:
            effects = node.on_timer(ev.at)
        elif ev.kind == BOOT:
            effects = node.boot(ev.at)
        else:
            raise AssertionError(f"unknown event kind {ev.kind}")
        for v in effects.broadcasts:
            self.broadcast(ev.target, v, ev.at)
        for deadline in effects.timers:
            self._push(deadline, TIMER, ev.target, None)
        if ev.kind == DELIVER:
            self._retire(ev.vertex.id)
        return ev

    def _retire(self, vid: VertexId) -> None:
        """Count one queued copy of ``vid`` as gone."""
        self._in_flight[vid] -= 1
        if not self._in_flight[vid]:
            # No copy is left to deliver it first anywhere, so nobody can echo it again.
            del self._in_flight[vid], self._arrivals[vid]


def run(cfg: SimConfig) -> RunResult:
    """Execute a scenario to its stop condition.

    A max-round stop caps vertex creation and then drains the event queue, so
    every in-flight message still lands and laggards converge. A max-time
    stop cuts the run at the first event past the deadline.
    """
    sim = Simulation(cfg)
    if cfg.max_time is not None:
        while sim._queue and sim._queue[0].at <= cfg.max_time:
            sim.step()
    else:
        while sim._queue:
            sim.step()
    return RunResult(
        config=cfg,
        committee=sim.committee,
        nodes=sim.nodes,
        tracers=sim.tracers,
        end_time=sim.now,
        events_executed=sim.events_executed,
    )
