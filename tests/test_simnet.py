import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repdag.checks import (
    check_delivery_bound,
    check_rb_agreement,
    check_rb_validity,
    check_total_order,
)
from repdag.config import parse_config
from repdag.dag import Vertex, VertexId
from repdag.reputation import initial_schedule
from repdag.simnet import DELIVER, TIMER, Simulation, client_supply, run
from repdag.traces import serialize

from .conftest import manifest_for, quick_run
from .oracles import brute_client_counts, per_copy_broadcast


class TestDeliveryTiming:
    def test_post_gst_window(self):
        cfg = parse_config({"stakes": [1, 1, 1, 1], "GST": 0, "Delta": 5, "seed": 1})
        sim = Simulation(cfg)
        for d in sim._delivery_times(40, 300):
            assert 40 < d <= 45

    def test_pre_gst_hold_until_gst(self):
        cfg = parse_config({"stakes": [1, 1, 1, 1], "GST": 100, "Delta": 5, "seed": 1})
        sim = Simulation(cfg)
        for now in (0, 17, 99):
            for d in sim._delivery_times(now, 100):
                assert 100 < d <= 105

    def test_pre_gst_random_respects_bound(self):
        cfg = parse_config(
            {"stakes": [1, 1, 1, 1], "GST": 50, "Delta": 4, "preGstPolicy": "random:200", "seed": 9}
        )
        sim = Simulation(cfg)
        for now in (0, 30, 49):
            for d in sim._delivery_times(now, 200):
                assert now < d <= 54

    def test_trace_delivery_bound_holds(self):
        cfg, result = quick_run(GST=15, Delta=3, seed=4, stop={"maxRound": 24})
        verdict = check_delivery_bound(result.records_by_node, {"config": cfg.to_json_dict()})
        assert verdict.ok, verdict


class TestStep:
    def test_equal_time_ties_break_by_seq(self):
        cfg = parse_config({"stakes": [1, 1, 1, 1], "seed": 0})
        sim = Simulation(cfg)
        first = sim.step()
        second = sim.step()
        assert (first.at, first.seq) <= (second.at, second.seq)

    def test_crash_is_absorbing(self):
        cfg = parse_config({"stakes": [1, 1, 1, 1], "faultPlan": [[2, 5]], "stop": {"maxRound": 12}})
        result = run(cfg)
        node = result.nodes[2]
        assert node.crashed
        # no trace records after the crash tick
        assert all(rec["at"] <= 5 for rec in result.tracers[2].records)

    def test_empty_queue_terminates(self):
        cfg = parse_config({"stakes": [1, 1, 1, 1], "stop": {"maxRound": 4}})
        sim = Simulation(cfg)
        while sim.step() is not None:
            pass
        assert sim.step() is None

    def test_crashed_at_zero_never_participates(self):
        cfg, result = quick_run(faultPlan=[[0, 0]], stop={"maxRound": 10})
        assert result.tracers[0].records == []
        for tracer in result.tracers[1:]:
            delivered = {tuple(r["id"]) for r in tracer.records if r["kind"] == "vertex-delivered"}
            assert all(src != 0 for _, src in delivered)


class TestQueuedCopies:
    """Only copies that can change their receiver are queued."""

    def test_delta_one_delivers_each_vertex_once_per_peer(self):
        cfg = parse_config({"stakes": [1] * 7, "Delta": 1, "stop": {"maxRound": 30}, "seed": 5})
        sim = Simulation(cfg)
        events = []
        while (ev := sim.step()) is not None:
            events.append(ev)
        deliveries = Counter((ev.vertex.id, ev.target) for ev in events if ev.kind == DELIVER)
        vertices = sum(r["kind"] == "vertex-created" for t in sim.tracers for r in t.records)
        timers = sum(ev.kind == TIMER for ev in events)
        assert set(deliveries.values()) == {1}
        assert len(deliveries) == cfg.n * vertices
        assert sim.events_executed == cfg.n * vertices + cfg.n + timers

    def test_no_copy_is_queued_for_a_crashed_peer(self):
        cfg = parse_config(
            {
                "stakes": [1] * 7,
                "Delta": 4,
                "GST": 30,
                "preGstPolicy": "random:10",
                "faultPlan": [[2, 23], [5, 41]],
                "stop": {"maxRound": 30},
                "seed": 6,
            }
        )
        crash_at = dict(cfg.fault_plan)
        sim = Simulation(cfg)
        delivered_to_crashed = 0
        while (ev := sim.step()) is not None:
            for queued in sim._queue:
                if queued.kind == DELIVER and queued.target in crash_at:
                    assert queued.at < crash_at[queued.target], queued
            if ev.kind == DELIVER and ev.target in crash_at:
                delivered_to_crashed += 1
        # The crashed validators took part before their crash, and the
        # others kept broadcasting to them after it.
        assert delivered_to_crashed > 0
        for tracer in sim.tracers:
            if tracer.node not in crash_at:
                assert tracer.records[-1]["at"] > max(crash_at.values())

    def test_no_copy_is_queued_for_a_validator_crashed_at_zero(self):
        cfg = parse_config(
            {
                "stakes": [1] * 7,
                "Delta": 3,
                "GST": 20,
                "preGstPolicy": "random:5",
                "faultPlan": [[1, 0], [4, 0]],
                "stop": {"maxRound": 20},
                "seed": 4,
            }
        )
        sim = Simulation(cfg)
        while (ev := sim.step()) is not None:
            assert not (ev.kind == DELIVER and ev.target in (1, 4)), ev
            assert not [q for q in sim._queue if q.kind == DELIVER and q.target in (1, 4)]
        for tracer in sim.tracers:
            if tracer.node not in (1, 4):
                assert [20, tracer.node] in [r["id"] for r in tracer.records if r["kind"] == "vertex-created"]

    def test_overtaken_copies_do_not_reach_the_node(self):
        cfg = parse_config(
            {
                "stakes": [1] * 7,
                "Delta": 3,
                "GST": 30,
                "preGstPolicy": "random:9",
                "stop": {"maxRound": 30},
                "seed": 3,
            }
        )
        sim = Simulation(cfg)
        calls = Counter()
        for node in sim.nodes:

            def on_deliver(v, now, node=node, deliver=node.on_deliver):
                calls["repeat" if v.id in node._seen else "first"] += 1
                return deliver(v, now)

            node.on_deliver = on_deliver
        popped = Counter()
        while (ev := sim.step()) is not None:
            popped[ev.kind] += 1
        assert calls["repeat"] == 0
        # Some copies were overtaken: they popped, never ran, and are not
        # counted as executed.
        retired = popped[DELIVER] - calls["first"]
        assert retired > 0
        assert sim.events_executed == sum(popped.values()) - retired

    @pytest.mark.parametrize(
        "raw",
        [
            {"stakes": [1] * 7, "Delta": 1, "seed": 2},
            {"stakes": [1] * 4, "Delta": 3, "faultPlan": [[3, 40]], "seed": 2},
            {"stakes": [1] * 7, "Delta": 3, "faultPlan": [[1, 0], [4, 0]], "seed": 2},
        ],
    )
    def test_arrival_map_stays_bounded(self, raw):
        def peak(rounds):
            sim = Simulation(parse_config({**raw, "stop": {"maxRound": rounds}}))
            high = 0
            while sim.step() is not None:
                high = max(high, len(sim._arrivals))
            assert not sim._arrivals and not sim._arrival_max and not sim._in_flight
            return high

        assert peak(100) == peak(400)


def drive(cfg, broadcast=None):
    """Run ``cfg`` to its stop condition as ``run`` does and return the simulation."""
    sim = Simulation(cfg)
    if broadcast is not None:
        sim.broadcast = partial(broadcast, sim)
    stop = cfg.max_time if cfg.max_time is not None else float("inf")
    while sim._queue and sim._queue[0].at <= stop:
        sim.step()
    return sim


equivalence_scenarios = st.integers(min_value=4, max_value=10).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "stakes": st.just([1] * n),
            "Delta": st.integers(1, 5),
            "GST": st.integers(0, 40),
            "preGstPolicy": st.one_of(st.just("hold"), st.integers(1, 20).map(lambda k: f"random:{k}")),
            # Crashes at t=0 and mid-run, up to every validator but one.
            "faultPlan": st.dictionaries(
                st.integers(0, n - 1), st.one_of(st.just(0), st.integers(1, 60)), max_size=n - 1
            ).map(lambda plan: [[v, at] for v, at in sorted(plan.items())]),
            "stop": st.one_of(
                st.integers(2, 12).map(lambda r: {"maxRound": r}),
                st.integers(5, 90).map(lambda t: {"maxTime": t}),
            ),
            "seed": st.integers(0, 2**16),
        }
    )
)


# The creator of a vertex crashes one tick after making it and every peer is
# down: its own copy must still be queued.
lone_creator = example(
    {
        "stakes": [1] * 4,
        "Delta": 2,
        "faultPlan": [[0, 1], [1, 0], [2, 0], [3, 0]],
        "stop": {"maxRound": 4},
        "seed": 0,
    }
)
# Crashes at t=0 and mid-run under random pre-GST delays, cut by maxTime.
crashes_cut_by_max_time = example(
    {
        "stakes": [1] * 7,
        "GST": 30,
        "Delta": 4,
        "preGstPolicy": "random:9",
        "faultPlan": [[2, 0], [5, 17]],
        "stop": {"maxTime": 80},
        "seed": 11,
    }
)


class TestBroadcastEquivalence:
    """Skipping dead echoes changes nothing a run shows, the random stream included."""

    @pytest.mark.filterwarnings("ignore:fault plan crashes")
    @settings(max_examples=100, deadline=None)
    @given(equivalence_scenarios)
    @lone_creator
    @crashes_cut_by_max_time
    def test_matches_the_per_copy_loop(self, raw):
        cfg = parse_config(raw)
        fast, slow = drive(cfg), drive(cfg, per_copy_broadcast)
        assert [serialize(t.node, t.records) for t in fast.tracers] == [
            serialize(t.node, t.records) for t in slow.tracers
        ]
        assert (fast.now, fast.events_executed) == (slow.now, slow.events_executed)
        assert fast.rng.getstate() == slow.rng.getstate()

    @pytest.mark.filterwarnings("ignore:fault plan crashes")
    @settings(max_examples=30, deadline=None)
    @given(equivalence_scenarios)
    @lone_creator
    @crashes_cut_by_max_time
    def test_running_maximum_tracks_the_arrivals_row(self, raw):
        # The dead-echo test reads the maximum instead of the row.
        cfg = parse_config(raw)
        sim = Simulation(cfg)
        stop = cfg.max_time if cfg.max_time is not None else float("inf")
        while sim._queue and sim._queue[0].at <= stop:
            sim.step()
            assert sim._arrival_max == {vid: max(row) for vid, row in sim._arrivals.items()}
        if cfg.max_time is None:
            assert not sim._arrivals and not sim._arrival_max

    @pytest.mark.parametrize(
        "raw, draws_per_copy",
        [
            ({"GST": 0, "Delta": 3}, 1),
            ({"GST": 50, "Delta": 3}, 1),
            ({"GST": 50, "Delta": 3, "preGstPolicy": "random:7"}, 2),
            ({"GST": 0, "Delta": 1}, 0),
        ],
        ids=["post-gst", "pre-gst-hold", "pre-gst-random", "post-gst-delta-1"],
    )
    def test_skipped_echo_advances_the_stream_like_its_draws(self, raw, draws_per_copy):
        # Nothing but a sender's own copy lands before GST + 1, so runs echo
        # only after GST; the pre-GST regimes are pinned here alone.
        cfg = parse_config({"stakes": [1] * 5, "seed": 3, **raw})
        now, v = 10, Vertex(VertexId(0, 0), frozenset())
        sim, reference = Simulation(cfg), Simulation(cfg)
        # Every peer already has a copy at ``now``, the sender 2 included.
        sim._arrivals[v.id] = [now] * cfg.n
        sim._arrival_max[v.id] = now
        sim._in_flight[v.id] = 1
        queued = list(sim._queue)
        sim.broadcast(2, v, now)
        assert sim._queue == queued
        reference._delivery_times(now, cfg.n - 1)
        assert sim.rng.getstate() == reference.rng.getstate()
        words = random.Random(cfg.seed)
        for _ in range((cfg.n - 1) * draws_per_copy):
            words.random()
        assert sim.rng.getstate() == words.getstate()


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        raw = {"stakes": [1] * 7, "stop": {"maxRound": 25}, "Delta": 3, "seed": 42, "faultPlan": [[6, 8]]}
        a = run(parse_config(raw))
        b = run(parse_config(raw))
        for ta, tb in zip(a.tracers, b.tracers):
            assert serialize(ta.node, ta.records) == serialize(tb.node, tb.records)

    def test_different_seeds_differ(self):
        a = run(parse_config({"stakes": [1] * 4, "stop": {"maxRound": 20}, "seed": 1}))
        b = run(parse_config({"stakes": [1] * 4, "stop": {"maxRound": 20}, "seed": 2}))
        texts_a = [serialize(t.node, t.records) for t in a.tracers]
        texts_b = [serialize(t.node, t.records) for t in b.tracers]
        assert texts_a != texts_b


class TestGoldenRun:
    """Faultless n=4 run to round 20; the first anchors are verified against
    an independent reading of the seeded schedule."""

    def golden(self):
        return quick_run(seed=42, Delta=2, stop={"maxRound": 20})

    def test_every_node_commits_at_least_eight_anchors(self):
        _, result = self.golden()
        for tracer in result.tracers:
            anchors = [r for r in tracer.records if r["kind"] == "anchor-committed"]
            assert len(anchors) >= 8

    def test_first_three_anchor_leaders_follow_the_schedule(self):
        cfg, result = self.golden()
        schedule = initial_schedule(result.committee, cfg.seed, cfg.slot_length)
        for tracer in result.tracers:
            anchors = sorted(
                ((r["round"], r["leader"]) for r in tracer.records if r["kind"] == "anchor-committed")
            )
            assert anchors[:3] == [
                (2, schedule.slots[1]),
                (4, schedule.slots[2]),
                (6, schedule.slots[3]),
            ]

    def test_total_order_across_nodes(self):
        _, result = self.golden()
        assert check_total_order(result.records_by_node).ok

    def test_anchor_history_prefix_property(self):
        # every node's ordering respects causal order: parents before children
        _, result = self.golden()
        for node in result.nodes:
            position = {vid: i for i, vid in enumerate(node.commit.ordered)}
            for vid in position:
                for s in node.dag.get(vid).parents:
                    assert position[VertexId(vid.round - 1, s)] < position[vid]


class TestCrashPatterns:
    def test_round_robin_crash_skips_every_cycle(self):
        cfg, result = quick_run(
            mode="round-robin", seed=7, faultPlan=[[3, 0]], stop={"maxRound": 40}, Delta=2
        )
        schedule = initial_schedule(result.committee, cfg.seed, cfg.slot_length)
        committed = set()
        for tracer in result.tracers:
            committed |= {r["round"] for r in tracer.records if r["kind"] == "anchor-committed"}
        top = max(committed)
        expected_skips = {r for r in range(2, top + 1, 2) if schedule.leader_for(r) == 3}
        actual_skips = {r for r in range(2, top + 1, 2) if r not in committed}
        assert actual_skips == expected_skips

    def test_mid_run_crash_messages_in_flight_still_deliver(self):
        # the crashed node broadcast its genesis at tick 0 and crashes right
        # after; every honest node still inserts that vertex
        cfg, result = quick_run(faultPlan=[[1, 1]], stop={"maxRound": 12}, Delta=3)
        manifest = manifest_for(cfg)
        for tracer in result.tracers:
            if tracer.node == 1:
                continue
            delivered = {tuple(r["id"]) for r in tracer.records if r["kind"] == "vertex-delivered"}
            assert (0, 1) in delivered

    def test_rb_validity_and_agreement_under_crashes(self):
        cfg, result = quick_run(seed=3, faultPlan=[[2, 9]], stop={"maxRound": 16}, Delta=3)
        manifest = manifest_for(cfg)
        assert check_rb_validity(result.records_by_node, manifest).ok
        assert check_rb_agreement(result.records_by_node, manifest).ok


class TestRoundProgress:
    def test_rounds_advance_within_wait_bound_after_gst(self):
        # one delivery hop of peer skew, one delivery hop for the vertices,
        # one leader wait, plus the discrete-tick boundary
        for seed in range(4):
            cfg, result = quick_run(
                stakes=[1] * 7,
                stop={"maxRound": 50},
                Delta=2,
                leaderTimeout=8,
                GST=20,
                seed=seed,
                faultPlan=[[6, 20], [5, 27]],
            )
            bound = 2 * cfg.delta + cfg.leader_timeout + 1
            for tracer in result.tracers:
                if result.nodes[tracer.node].crashed:
                    continue
                # A node makes its vertex of round r at the tick it advances to r.
                times = [
                    r["at"]
                    for r in tracer.records
                    if r["kind"] == "vertex-created" and r["id"][0] > 0 and r["at"] >= cfg.gst
                ]
                for earlier, later in zip(times, times[1:]):
                    assert later - earlier <= bound, f"seed {seed} node {tracer.node}"


class TestClientPool:
    """Direct cases of the client pool that ``client_supply`` reads from the crash table."""

    def test_load_conserved_after_crash(self):
        crash_at = [1 << 62, 1 << 62, 1 << 62, 10]
        before = [client_supply(crash_at, 2, v, 5) for v in range(4)]
        after = [client_supply(crash_at, 2, v, 10) for v in range(3)]  # 3 is crashed
        assert sum(before) == sum(after) == 8
        assert before == [2, 2, 2, 2]
        assert after == [4, 2, 2]  # client of 3 re-attached to 0

    def test_zero_rate(self):
        assert client_supply([1 << 62] * 4, 0, 0, 0) == 0


# n, {validator: crash tick}, rate, now
supply_scenarios = st.integers(min_value=2, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.dictionaries(st.integers(0, n - 1), st.integers(0, 20), max_size=n),
        st.integers(0, 4),
        st.integers(0, 25),
    )
)


class TestClientSupply:
    @settings(max_examples=300, deadline=None)
    @given(supply_scenarios)
    @example((4, {3: 10}, 2, 5))  # before the crash: [2, 2, 2, 2]
    @example((4, {3: 10}, 2, 10))  # 3's client re-attached to 0: [4, 2, 2, -]
    @example((4, {}, 0, 0))  # zero rate
    @example((5, {4: 0, 0: 2, 3: 7}, 1, 2))  # a crashed run wrapping past n-1 to 0
    @example((6, {0: 1, 1: 0, 2: 1, 4: 1, 5: 0}, 3, 1))  # all but one crashed
    def test_matches_brute_force_scan(self, scenario):
        n, plan, rate, now = scenario
        crash_at = [plan.get(v, 1 << 62) for v in range(n)]
        counts = brute_client_counts(n, plan, now)
        live = [v for v in range(n) if crash_at[v] > now]
        supplies = [client_supply(crash_at, rate, v, now) for v in live]
        assert supplies == [counts[v] * rate for v in live]
        # Clients of crashed validators re-attach, so the offered load holds.
        if live:
            assert sum(supplies) == n * rate
