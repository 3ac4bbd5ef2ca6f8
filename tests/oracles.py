"""Independent brute-force oracles the implementation is checked against.

These stay deliberately naive: plain depth-first search for reachability
(over ids built from each vertex's parent mask),
literal per-round enumeration for scores, a step-by-step rendering of the
swap rule, a hop-by-hop scan of client re-attachment, a per-copy
broadcast and event loop over a plain (time, seq) heap, a set test of
parent completeness, reliable-broadcast checkers that hold every honest
node's first deliveries at once, metrics that read the records in four
passes, and a commit log read straight off the records. None of them share
code with the package internals beyond the verdict, metrics and event types
and the honest-node, committed-round and rank helpers.
"""

import heapq
from typing import Any

from repdag.checks import DeliveryVerdict
from repdag.dag import DagState, UnknownVertex, VertexId
from repdag.metrics import Metrics, Records, _nearest_rank, committed_anchor_rounds, honest_nodes
from repdag.simnet import BOOT, CRASH, DELIVER, TIMER, SimEvent


def parent_sources(v) -> frozenset[int]:
    """The sources of ``v``'s parents, read bit by bit from its mask."""
    return frozenset(s for s in range(v.mask.bit_length()) if v.mask >> s & 1)


def naive_path(dag: DagState, frm: VertexId, to: VertexId) -> bool:
    if frm not in dag:
        raise UnknownVertex(frm)
    seen = set()

    def dfs(vid):
        if vid == to:
            return True
        seen.add(vid)
        for s in sorted(parent_sources(dag.get(vid))):
            parent = (vid[0] - 1, s)
            if parent not in seen and dfs(parent):
                return True
        return False

    return dfs(frm)


def naive_ancestors(dag: DagState, frm: VertexId) -> set[VertexId]:
    """Every id a parent chain leads to from ``frm``, ``frm`` included."""
    seen, stack = {frm}, [frm]
    while stack:
        vid = stack.pop()
        for s in parent_sources(dag.get(vid)):
            parent = (vid[0] - 1, s)
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


def brute_scores(dag, book, committee, from_round, to_round_exclusive):
    points = {v: 0 for v in committee.members}
    if from_round >= to_round_exclusive:
        return points
    trigger = (to_round_exclusive, book.leader_for(to_round_exclusive))
    if dag.get(trigger) is None:
        return points
    start = from_round if from_round % 2 == 0 else from_round + 1
    for e in range(start, to_round_exclusive, 2):
        leader_vid = (e, book.leader_for(e))
        if dag.get(leader_vid) is None:
            continue
        for s in committee.members:
            voter = dag.get((e + 1, s))
            if voter is None:
                continue
            if leader_vid[1] in parent_sources(voter) and naive_path(dag, trigger, voter.id):
                points[s] += 1
    return points


def brute_swap(prev_slots, points, committee, exclusion_fraction=0.33):
    """Enumerate the demote and promote sets literally, then replace slots."""
    total = committee.total_stake
    cap = min(int(exclusion_fraction * total), (total - 1) // 3)
    by_worst = sorted(committee.members, key=lambda v: (points[v], -v))
    demoted = []
    spent = 0
    for v in by_worst:
        if spent + committee.stake(v) > cap:
            break
        demoted.append(v)
        spent += committee.stake(v)
    while len(demoted) > committee.n - len(demoted):
        demoted.pop()
    pool = [v for v in committee.members if v not in demoted]
    promoted = sorted(pool, key=lambda v: (-points[v], v))[: len(demoted)]
    slots = list(prev_slots)
    replaced = 0
    for i, holder in enumerate(prev_slots):
        if holder in demoted:
            slots[i] = promoted[replaced % len(promoted)]
            replaced += 1
    return slots, demoted, promoted


def brute_client_counts(n, crash_at, now):
    """Clients each validator serves at ``now``: every validator's client hops
    up by id, wrapping around, to the first validator not crashed at or
    before ``now``. ``crash_at`` maps crashed validators to their crash tick."""
    counts = [0] * n
    for client in range(n):
        for hop in range(n):
            candidate = (client + hop) % n
            if candidate not in crash_at or crash_at[candidate] > now:
                counts[candidate] += 1
                break
    return counts


def per_copy_delay(rng, cfg, now):
    """One copy's landing tick, drawn from ``rng`` as the simulator draws it."""
    if now >= cfg.gst:
        return now + 1 + int(rng.random() * cfg.delta)
    if cfg.pre_gst_policy == "hold":
        return cfg.gst + 1 + int(rng.random() * cfg.delta)
    pre_max = int(cfg.pre_gst_policy.split(":", 1)[1])
    held = max(cfg.gst, now + 1 + int(rng.random() * max(1, pre_max)))
    return min(held + 1 + int(rng.random() * cfg.delta), cfg.gst + cfg.delta)


class PerCopyLoop:
    """``Simulation.step`` and ``broadcast`` as a plain per-copy loop.

    It keeps its own queue, a heap of ``(at, seq, event)`` entries with a
    counter for ``seq``. It takes the simulation's initial events out of the
    calendar and queues its own: the fault plan's crashes, then the boot of
    every validator not crashed at 0. Only the nodes, tracers, clock and
    random stream of ``sim`` are shared.
    """

    def __init__(self, sim):
        self.sim, self.heap, self.seq = sim, [], 0
        self.crash_at = dict(sim.cfg.fault_plan)
        sim._queue.clear()
        sim._buckets.clear()
        for validator, at in sim.cfg.fault_plan:
            self.push(at, CRASH, validator, None)
        for validator in range(sim.cfg.n):
            if self.alive(validator, 0):
                self.push(0, BOOT, validator, None)

    def alive(self, validator, at):
        """Whether ``validator`` has not crashed by tick ``at``."""
        return at < self.crash_at.get(validator, float("inf"))

    def push(self, at, kind, target, vertex):
        heapq.heappush(self.heap, (at, self.seq, SimEvent(at, kind, target, vertex)))
        self.seq += 1

    def next_tick(self):
        """The tick of the next event, or None once the queue is empty."""
        return self.heap[0][0] if self.heap else None

    def broadcast(self, sender, v, now):
        """One loop over every peer, skipping nothing.

        Each copy gets its own delay draw, in peer order (none after GST with
        Delta 1, where every copy lands at ``now + 1``), and is queued as its
        own ``DELIVER`` event when it lands before the peer's crash.
        """
        cfg = self.sim.cfg
        for peer in range(cfg.n):
            if peer == sender:
                at = now
            elif now >= cfg.gst and cfg.delta == 1:
                at = now + 1
            else:
                at = per_copy_delay(self.sim.rng, cfg, now)
            if self.alive(peer, at):
                self.push(at, DELIVER, peer, v)

    def step(self):
        """Pop one event and handle it; None once the queue is empty.

        Every queued copy is its own event, and every one runs. A crash marks
        its node crashed and nothing more, and a timer whose node waits on no
        deadline that has come outlived its round and is retired; neither
        runs or counts. A timer is queued only for a tick before its node's
        crash.
        """
        if not self.heap:
            return None
        sim = self.sim
        ev = heapq.heappop(self.heap)[2]
        at, kind, target, vertex = ev
        node = sim.nodes[target]
        if kind == CRASH:
            node.crashed = True
            return ev
        deadline = node.leader_wait_deadline
        if kind == TIMER and (deadline is None or deadline > at):
            return ev
        sim.now = at
        sim.events_executed += 1
        sim.tracers[target].now = at
        if kind == DELIVER:
            effects = node.on_deliver(vertex, at)
        elif kind == TIMER:
            effects = node.on_timer(at)
        else:
            effects = node.boot(at)
        if effects is not None:
            for v in effects.broadcasts:
                self.broadcast(target, v, at)
            for deadline in effects.timers:
                if self.alive(target, deadline):
                    self.push(deadline, TIMER, target, None)
        return ev


def commit_log(records) -> list[tuple[Any, int]]:
    """A node's commit log from its ``anchor-committed`` records: each ordered
    vertex id, in order, paired with the round of the anchor that ordered it."""
    return [(vid, r["round"]) for r in records if r["kind"] == "anchor-committed" for vid in r["ordered"]]


def parents_complete(dag: DagState, v) -> bool:
    """The causal-completeness rule as a set test: every parent ``v`` names is
    held one round below it."""
    return dag.vertices_at(v.round - 1).keys() >= parent_sources(v)


def _created_by(records_by_node):
    created = {}
    for node, records in records_by_node.items():
        for rec in records:
            if rec["kind"] == "vertex-created":
                created[tuple(rec["id"])] = rec["at"]
    return created


def _first_deliveries(records):
    """A node's first-delivery tick per vertex id, in delivery order."""
    ticks = {}
    for rec in records:
        if rec["kind"] == "vertex-delivered":
            ticks.setdefault(tuple(rec["id"]), rec["at"])
    return ticks


def all_nodes_rb_validity(records_by_node, manifest):
    """Every vertex a never-crashed node broadcast reaches every honest node."""
    honest = honest_nodes(manifest)
    delivered = {node: _first_deliveries(records_by_node.get(node, [])) for node in honest}
    created = dict.fromkeys(vid for vid in _created_by(records_by_node) if vid[1] in delivered)
    if all(ticks.keys() >= created.keys() for ticks in delivered.values()):
        return DeliveryVerdict("rb-validity", True)
    missing = [(node, vid) for vid in created for node in honest if vid not in delivered[node]]
    return DeliveryVerdict("rb-validity", False, tuple(missing))


def all_nodes_rb_agreement(records_by_node, manifest):
    """A vertex delivered by one honest node is delivered by all of them."""
    honest = honest_nodes(manifest)
    delivered = {node: _first_deliveries(records_by_node.get(node, [])) for node in honest}
    union = set().union(*(ticks.keys() for ticks in delivered.values()))
    if all(ticks.keys() == union for ticks in delivered.values()):
        return DeliveryVerdict("rb-agreement", True)
    missing = [(node, vid) for vid in sorted(union) for node in honest if vid not in delivered[node]]
    return DeliveryVerdict("rb-agreement", False, tuple(missing))


def four_pass_metrics(records_by_node: Records, manifest: dict[str, Any]) -> Metrics:
    """``metrics.compute_metrics`` as it read the records: one pass for creations
    and the horizon, then honest nodes once each for commits, committed rounds
    and schedule switches."""
    honest = honest_nodes(manifest)
    horizon = 0
    created: dict[tuple[int, int], tuple[int, int]] = {}  # id -> (at, txCount)
    for node, records in records_by_node.items():
        for rec in records:
            horizon = max(horizon, rec["at"])
            if rec["kind"] == "vertex-created":
                created[tuple(rec["id"])] = (rec["at"], rec["txCount"])

    samples: list[int] = []
    ordered_ids: set[tuple[int, int]] = set()
    for node in honest:
        first_order_here: dict[tuple[int, int], int] = {}
        for rec in records_by_node.get(node, []):
            if rec["kind"] != "anchor-committed":
                continue
            for vid in map(tuple, rec["ordered"]):
                ordered_ids.add(vid)
                if vid[1] == node and vid not in first_order_here:
                    first_order_here[vid] = rec["at"]
        for vid, at in first_order_here.items():
            created_at, tx_count = created[vid]
            samples.extend([at - created_at] * tx_count)

    distinct_txs = sum(created[vid][1] for vid in ordered_ids if vid in created)
    throughput = distinct_txs / horizon if horizon > 0 else 0.0

    samples.sort()
    if samples:
        p50 = _nearest_rank(samples, 0.50)
        p95 = _nearest_rank(samples, 0.95)
        avg = sum(samples) / len(samples)
    else:
        p50 = p95 = avg = None

    committed_rounds = committed_anchor_rounds(records_by_node, honest)
    skipped = 0
    if committed_rounds:
        top = max(committed_rounds)
        skipped = sum(1 for r in range(2, top + 1, 2) if r not in committed_rounds)

    switch_times: dict[int, list[int]] = {}
    for node in honest:
        for rec in records_by_node.get(node, []):
            if rec["kind"] == "schedule-switched":
                switch_times.setdefault(rec["epoch"], []).append(rec["at"])
    lag_max = 0
    for epoch, times in switch_times.items():
        if len(times) == len(honest):
            lag_max = max(lag_max, max(times) - min(times))

    return Metrics(
        latency_p50=p50,
        latency_p95=p95,
        latency_avg=avg,
        throughput=throughput,
        distinct_txs=distinct_txs,
        skipped_anchor_rounds=skipped,
        epoch_switch_lag_max=lag_max,
        horizon=horizon,
    )
