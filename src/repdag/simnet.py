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

Each vertex is broadcast once, by its creator: one copy per validator, the
creator's own landing at the send tick. Every copy is queued at the send
tick and a crash cancels none in flight, so reliable broadcast's validity,
agreement and integrity and the delivery bound above hold without a relay.
A copy is queued only when it lands before its receiver's crash, so every
copy that pops is a first delivery at a live node and runs. Every peer's
delay is drawn, queued or not, so a receiver's crash never moves a later
draw; after GST with Delta 1 every draw would be 0, so none is made (the
stream feeds only delivery delays, so no later draw can tell).

Boots and leader-wait timers follow the same rule: none is queued for a
validator at or after its crash tick, so the simulator alone keeps a crashed
validator inert. A timer outlives its round when the anchor arrives first;
it is retired when it pops, without running, as its tick is no longer its
node's leader-wait deadline (a later round's is never earlier). A crash only
marks its node crashed. So ``events_executed`` counts exactly the handler
calls, and ``now`` after a drained run is the tick of the last one. ``run``
pauses the cyclic garbage collector (``gc_paused``).
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
from .dag import Vertex
from .node import Node
from .reputation import initial_schedule
from .traces import Tracer

# Event kinds; a crash pops before anything else queued at its tick, because
# fault-plan events are queued first.
CRASH, BOOT, DELIVER, TIMER = 0, 1, 2, 3
# A tick later than any run reaches: "no crash".
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
        # Per-run constants of the hot paths: the peers a broadcast draws for
        # and the random:k bound.
        self._gst, self._peers, self._pre_max = cfg.gst, self.committee.n - 1, cfg.pre_gst_max
        for v in self.committee.members:
            if self._crash_at[v] > 0:
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
        """Send ``v`` to every validator, queueing each copy that lands before
        its receiver's crash (crash events are queued first, so they pop
        first). The sender's own copy lands at ``now``."""
        ticks = self._delivery_times(now, self._peers)
        ticks.insert(sender, now)
        # tuple.__new__ skips the NamedTuple's Python-level constructor.
        new, buckets, queue, crash_at = tuple.__new__, self._buckets, self._queue, self._crash_at
        for peer, at in enumerate(ticks):
            if at < crash_at[peer]:
                ev = new(SimEvent, (at, DELIVER, peer, v))
                bucket = buckets.get(at)
                if bucket is None:
                    buckets[at] = deque((ev,))
                    heapq.heappush(queue, at)
                else:
                    bucket.append(ev)

    def step(self) -> SimEvent | None:
        """Pop and handle the next event; None once the queue is empty.

        Every copy and boot runs. A crash only sets its node's flag, and a
        timer whose round has passed is retired (see the module docstring);
        neither moves ``now``. Each event is returned: a returned event of
        any kind ran exactly when ``events_executed`` grew across the call.
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
        node = self.nodes[target]
        if kind == CRASH:
            node.crashed = True
            return ev
        if kind == TIMER and at != node.leader_wait_deadline:
            # Its node has left the round the timer was armed for.
            return ev
        self.now = self.tracers[target].now = at
        self.events_executed += 1
        if kind == DELIVER:
            effects = node.on_deliver(vertex, at)
        elif kind == TIMER:
            effects = node.on_timer(at)
        else:
            effects = node.boot(at)
        # None: the node created no vertex and armed no timer.
        if effects is not None:
            for v in effects.broadcasts:
                self.broadcast(target, v, at)
            for deadline in effects.timers:
                if deadline < self._crash_at[target]:
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
