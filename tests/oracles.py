"""Independent brute-force oracles the implementation is checked against.

These stay deliberately naive: plain depth-first search for reachability,
literal per-round enumeration for scores, a step-by-step rendering of the
swap rule, a hop-by-hop scan of client re-attachment, and a per-copy
broadcast loop. None of them share code with the package internals.
"""

from repdag.dag import DagState, UnknownVertex, VertexId
from repdag.simnet import DELIVER


def naive_path(dag: DagState, frm: VertexId, to: VertexId) -> bool:
    if frm not in dag:
        raise UnknownVertex(frm)
    seen = set()

    def dfs(vid):
        if vid == to:
            return True
        seen.add(vid)
        for e in sorted(dag.get(vid).edges):
            if e not in seen and dfs(e):
                return True
        return False

    return dfs(frm)


def brute_scores(dag, book, committee, from_round, to_round_exclusive):
    points = {v: 0 for v in committee.members}
    if from_round >= to_round_exclusive:
        return points
    trigger = VertexId(to_round_exclusive, book.leader_for(to_round_exclusive))
    if dag.get(trigger) is None:
        return points
    start = from_round if from_round % 2 == 0 else from_round + 1
    for e in range(start, to_round_exclusive, 2):
        leader_vid = VertexId(e, book.leader_for(e))
        if dag.get(leader_vid) is None:
            continue
        for s in committee.members:
            voter = dag.get(VertexId(e + 1, s))
            if voter is None:
                continue
            if leader_vid in voter.edges and naive_path(dag, trigger, voter.id):
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


def per_copy_broadcast(sim, sender, v, now):
    """``Simulation.broadcast`` as one loop over every peer, skipping nothing.

    Each copy gets its own delay draw, in peer order (none after GST with
    Delta 1, where every copy lands at ``now + 1``), and is queued when it
    lands before the peer's crash and before any other copy of ``v`` headed
    to that peer. It keeps the simulator's bookkeeping (``_arrivals``,
    ``_in_flight``) so the simulator's ``step`` can run on it.
    """
    cfg = sim.cfg
    crash_at = dict(cfg.fault_plan)
    arrivals = sim._arrivals.setdefault(v.id, [float("inf")] * cfg.n)
    for peer in range(cfg.n):
        if peer == sender:
            at = now
        elif now >= cfg.gst and cfg.delta == 1:
            at = now + 1
        else:
            at = per_copy_delay(sim.rng, cfg, now)
        if at < arrivals[peer] and at < crash_at.get(peer, float("inf")):
            arrivals[peer] = at
            sim._push(at, DELIVER, peer, v)
            sim._in_flight[v.id] = sim._in_flight.get(v.id, 0) + 1
