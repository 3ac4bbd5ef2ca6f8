"""Deterministic discrete-event network simulator.

Partial synchrony: any message sent at time x arrives by Delta + max(GST, x).
Before GST the adversary policy decides delays (either held until GST or a
seeded random delay, clamped to the bound); after GST delays are seeded
uniform in [1, Delta]. Time is integer ticks, and the whole run is a pure
function of the config, so identical configs give bit-identical traces.

The event queue is a calendar (Brown, "Calendar queues", CACM 1988): one FIFO
bucket per tick that holds events, and a heap of those ticks. Events run in
tick order and, within a tick, in the order they were queued; an event queued
for the tick being drained joins the end of its bucket.

Every receiver echoes a vertex to all peers. The simulator issues the echo
itself when a copy runs at a peer other than the vertex's creator (Narwhal
likewise leaves dissemination to the transport, not to the consensus node).
A copy is queued only when it can change its receiver: copies that would land
at or after the receiver's crash, or at or after another copy of the same
vertex already headed there, are never queued, so every copy that runs is a
first delivery at a live node. Every copy's delay is still drawn, so the
random stream and the traces do not depend on this; after GST with Delta 1
every draw would be 0, so none is made (the stream feeds only delivery
delays, so no later draw can tell).

Whether an echo can queue anything is an O(1) test in ``step``: per vertex in
flight the simulator keeps the latest tick of its arrivals row (per peer, the
earliest landing or crash tick), which only ``broadcast`` changes. An echo at
``now`` queues nothing, and only advances the stream by its draws, once that
maximum is at or below ``max(now, GST) + 1``, the earliest tick a copy can
land; after GST with Delta 1 that holds for every echo.

A queued copy can still be overtaken by a faster echo queued after it
(Delta >= 2). When it pops, its target has already seen the vertex, so it is
retired without running and without counting in ``events_executed``, which
counts every other event popped: boots, crashes, first deliveries and every
timer, also those that act on nothing (a leader-wait timer whose round its
node has left, a timer or boot at a crashed node). ``now`` after a drained
run is the tick of the last counted event. ``run`` pauses the cyclic garbage
collector (``gc_paused``).
"""

from __future__ import annotations

import gc
import heapq
import random
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from functools import partial
from typing import Any, NamedTuple

from .committee import Committee, ValidatorId, new_committee
from .config import SimConfig
from .dag import Vertex, VertexId
from .node import Node
from .reputation import initial_schedule
from .traces import Tracer

# Event kinds; a crash runs before a boot at the same tick, because fault-plan
# events are queued first.
CRASH, BOOT, DELIVER, TIMER = 0, 1, 2, 3
# A tick later than any run reaches: "no crash" and "no copy yet".
_NEVER = 1 << 62


class SimEvent(NamedTuple):
    at: int
    kind: int
    target: ValidatorId
    vertex: Vertex | None


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run the body with the cyclic collector off, then restore its prior state.

    For code whose data hold no reference cycles: reference counting frees
    them, so a collection would only rescan them. Before the collector comes
    back on, what the body left is moved to the oldest generation unscanned
    (``gc.freeze`` then ``gc.unfreeze``; nothing else here freezes objects),
    so the young collections that follow do not walk it either. A nested
    pause and an exception leave the collector as the outermost caller found
    it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.freeze()
            gc.unfreeze()
            gc.enable()


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


class RunResult(NamedTuple):
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
        # The calendar: a heap of the ticks that hold events, and per such
        # tick its events in the order they were queued.
        self._queue: list[int] = []
        self._buckets: dict[int, deque[SimEvent]] = {}
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
        # Per-run constants of the hot paths: the peers a broadcast draws for,
        # the random bits a skipped echo advances the stream by after and
        # before GST (random() takes two 32-bit words), and the random:k bound.
        self._gst, self._peers, self._pre_max = cfg.gst, self.committee.n - 1, cfg.pre_gst_max
        pre_gst_draws = 1 if self._pre_max is None else 2
        self._skip_bits = (64 * self._peers * (cfg.delta > 1), 64 * self._peers * pre_gst_draws)
        # Per vertex with copies in flight: per peer, the earliest tick a copy
        # lands (queued or executed) or it crashes; that row's maximum; and
        # the copies queued.
        self._arrivals: dict[VertexId, list[int]] = {}
        self._arrival_max: dict[VertexId, int] = {}
        self._in_flight: dict[VertexId, int] = {}
        for v in self.committee.members:
            self._push(0, BOOT, v, None)

    def _push(self, at: int, kind: int, target: int, vertex: Vertex | None) -> None:
        ev = SimEvent(at, kind, target, vertex)
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = deque((ev,))
            heapq.heappush(self._queue, at)
        else:
            bucket.append(ev)

    def _delivery_times(self, now: int, copies: int) -> list[int]:
        """Landing ticks of ``copies`` copies sent at ``now``, in draw order."""
        gst, delta, pre_max = self._gst, self.cfg.delta, self._pre_max
        rand = self.rng.random
        if now >= gst:
            if delta == 1:
                return [now + 1] * copies
            return [now + 1 + int(rand() * delta) for _ in range(copies)]
        if pre_max is None:
            return [gst + 1 + int(rand() * delta) for _ in range(copies)]
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
        one would hit ``_seen``). The sender's own copy lands at ``now``.
        """
        vid = v.id
        arrivals = self._arrivals.get(vid)
        if arrivals is None:
            arrivals = self._arrivals[vid] = self._crash_at.copy()
        ticks = self._delivery_times(now, self._peers)
        ticks.insert(sender, now)
        # tuple.__new__ skips the NamedTuple's Python-level constructor.
        new, buckets, queue, queued = tuple.__new__, self._buckets, self._queue, 0
        for peer, at in enumerate(ticks):
            if at < arrivals[peer]:
                arrivals[peer] = at
                queued += 1
                ev = new(SimEvent, (at, DELIVER, peer, v))
                bucket = buckets.get(at)
                if bucket is None:
                    buckets[at] = deque((ev,))
                    heapq.heappush(queue, at)
                else:
                    bucket.append(ev)
        self._arrival_max[vid] = max(arrivals)
        self._in_flight[vid] = self._in_flight.get(vid, 0) + queued

    def step(self) -> SimEvent | None:
        """Pop and handle the next event; None once the queue is empty.

        A copy that runs at a peer other than the vertex's creator is echoed.
        An overtaken copy (see the module docstring) is retired without moving
        ``now`` and still returned: a returned ``DELIVER`` ran exactly when
        ``events_executed`` grew across the call.
        """
        queue = self._queue
        if not queue:
            return None
        at = queue[0]
        bucket = self._buckets[at]
        ev = bucket.popleft()
        if not bucket:
            heapq.heappop(queue)
            del self._buckets[at]
        _, kind, target, vertex = ev
        if kind == DELIVER:
            # It runs unless an earlier copy overtook it; no copy is ever
            # queued for a crashed peer, so none reaches one here.
            vid = vertex.id
            runs = self._arrivals[vid][target] >= at
            if runs:
                self.now = self.tracers[target].now = at
                self.events_executed += 1
                effects = self.nodes[target].on_deliver(vertex, at)
                if target != vertex.source:
                    # No copy lands before max(at, GST) + 1: an echo whose
                    # row is already no later has nothing to queue, and skips
                    # its draws; getrandbits(64 * k) takes exactly the 2 * k
                    # words of k random() draws.
                    gst = self._gst
                    if self._arrival_max[vid] > (at if at > gst else gst) + 1:
                        self.broadcast(target, vertex, at)
                    elif skip := self._skip_bits[at < gst]:
                        self.rng.getrandbits(skip)
            # One queued copy is gone; with none left, no copy can deliver
            # the vertex first anywhere, so nobody can echo it again.
            left = self._in_flight[vid] - 1
            if left:
                self._in_flight[vid] = left
            else:
                del self._in_flight[vid], self._arrivals[vid], self._arrival_max[vid]
            if not runs:
                return ev
        else:
            self.now = at
            self.events_executed += 1
            node = self.nodes[target]
            if kind == CRASH:
                node.crashed = True
                return ev
            if node.crashed:
                # Timers to crashed nodes are dropped at execution.
                return ev
            self.tracers[target].now = at
            effects = node.on_timer(at) if kind == TIMER else node.boot(at)
        # None: the node created no vertex and armed no timer.
        if effects is not None:
            for v in effects.broadcasts:
                self.broadcast(target, v, at)
            for deadline in effects.timers:
                self._push(deadline, TIMER, target, None)
        return ev


def run(cfg: SimConfig) -> RunResult:
    """Execute a scenario to its stop condition.

    A max-round stop caps vertex creation and then drains the event queue, so
    every in-flight message still lands and laggards converge. A max-time
    stop cuts the run at the first event past the deadline.
    """
    sim = Simulation(cfg)
    # The calendar's tick heap is only ever changed in place.
    queue, step, max_time = sim._queue, sim.step, cfg.max_time
    with gc_paused():
        if max_time is not None:
            while queue and queue[0] <= max_time:
                step()
        else:
            while queue:
                step()
    return RunResult(
        config=cfg,
        committee=sim.committee,
        nodes=sim.nodes,
        tracers=sim.tracers,
        end_time=sim.now,
        events_executed=sim.events_executed,
    )
