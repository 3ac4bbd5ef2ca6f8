from collections import Counter, defaultdict

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
from repdag.reputation import initial_schedule
from repdag.simnet import BOOT, CRASH, DELIVER, TIMER, Simulation, client_supply, run
from repdag.traces import serialize

from .conftest import manifest_for, quick_run
from .oracles import PerCopyLoop, brute_client_counts, commit_log, naive_ancestors, parent_sources
from .test_dag import source_masks
from .test_golden import CORPUS


def queued_copies(sim):
    """(landing tick, peer) of every copy in the calendar's buckets."""
    for at, bucket in sim._buckets.items():
        for ev in bucket:
            if ev.kind == DELIVER:
                yield at, ev.target


class TestDeliveryTiming:
    def test_post_gst_window(self):
        for delta in (5, 1):
            cfg = parse_config({"stakes": [1, 1, 1, 1], "GST": 0, "Delta": delta, "seed": 1})
            sim = Simulation(cfg)
            state = sim.rng.getstate()
            ticks = sim._delivery_times(40, 300)
            assert all(40 < d <= 40 + delta for d in ticks)
        # Delta 1: every copy lands at now + 1, and nothing is drawn.
        assert ticks == [41] * 300
        assert sim.rng.getstate() == state

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
    def test_events_at_one_tick_run_in_push_order(self):
        # The fault plan's crash is queued before the boots, so it pops first;
        # validator 2, crashed at 0, gets no boot. Each boot queues its
        # sender's own copy at the tick being drained, behind the boots
        # already there. The crash runs no handler, so it is not counted.
        cfg = parse_config({"stakes": [1] * 4, "faultPlan": [[2, 0]], "Delta": 2, "seed": 0})
        sim = Simulation(cfg)
        events = [sim.step() for _ in range(7)]
        assert [(ev.at, ev.kind, ev.target) for ev in events] == [
            (0, CRASH, 2),
            (0, BOOT, 0),
            (0, BOOT, 1),
            (0, BOOT, 3),
            (0, DELIVER, 0),
            (0, DELIVER, 1),
            (0, DELIVER, 3),
        ]
        assert [ev.vertex.id for ev in events[4:]] == [(0, 0), (0, 1), (0, 3)]
        assert sim._queue[0] == 1 and 0 not in sim._buckets
        assert sim.nodes[2].crashed and sim.events_executed == 6

    def test_a_push_to_a_just_emptied_tick_runs_first(self):
        # The lone boot empties tick 0's bucket; its own copy then opens a new
        # one there, ahead of the peers' copies at tick 1.
        cfg = parse_config({"stakes": [1] * 4, "Delta": 1, "seed": 0})
        sim = Simulation(cfg)
        sim._queue.clear()
        sim._buckets.clear()
        sim._push(0, BOOT, 0, None)
        assert sim.step().kind == BOOT
        assert sorted(sim._queue) == [0, 1]
        assert {at: len(bucket) for at, bucket in sim._buckets.items()} == {0: 1, 1: 3}
        events = [sim.step() for _ in range(4)]
        assert [(ev.at, ev.kind, ev.target) for ev in events] == [
            (0, DELIVER, 0),
            (1, DELIVER, 1),
            (1, DELIVER, 2),
            (1, DELIVER, 3),
        ]

    def test_crash_is_absorbing(self):
        cfg = parse_config({"stakes": [1, 1, 1, 1], "faultPlan": [[2, 5]], "stop": {"maxRound": 12}})
        result = run(cfg)
        node = result.nodes[2]
        assert node.crashed
        # no trace records at or after the crash tick
        assert all(rec["at"] < 5 for rec in result.tracers[2].records)

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
    """A copy is queued exactly when it lands before its receiver's crash."""

    def test_delta_one_delivers_each_vertex_once_per_peer(self):
        cfg = parse_config({"stakes": [1] * 7, "Delta": 1, "stop": {"maxRound": 30}, "seed": 5})
        sim = Simulation(cfg)
        events = []
        while (ev := sim.step()) is not None:
            events.append(ev)
        deliveries = Counter((ev.vertex.id, ev.target) for ev in events if ev.kind == DELIVER)
        records = [r["kind"] for t in sim.tracers for r in t.records]
        vertices, timeouts = records.count("vertex-created"), records.count("leader-timeout")
        assert set(deliveries.values()) == {1}
        assert len(deliveries) == cfg.n * vertices
        # One call per copy and per boot, and one per timer that timed its
        # round out; the others outlived their round and were retired.
        assert sim.events_executed == cfg.n * vertices + cfg.n + timeouts
        assert sum(ev.kind == TIMER for ev in events) > timeouts

    def test_no_copy_is_queued_for_a_crashed_peer(self):
        # Delta 4, then Delta 1, whose copies after GST share one tick.
        for delta, gst, policy, plan in (
            (4, 30, "random:10", [[2, 23], [5, 41]]),
            (1, 10, "hold", [[2, 14], [5, 22]]),
        ):
            self.check_no_copy_for_crashed_peers(delta, gst, policy, plan)

    def check_no_copy_for_crashed_peers(self, delta, gst, policy, plan):
        cfg = parse_config(
            {
                "stakes": [1] * 7,
                "Delta": delta,
                "GST": gst,
                "preGstPolicy": policy,
                "faultPlan": plan,
                "stop": {"maxRound": 30},
                "seed": 6,
            }
        )
        crash_at = dict(cfg.fault_plan)
        sim = Simulation(cfg)
        delivered_to_crashed = copies_read = 0
        while (ev := sim.step()) is not None:
            for at, peer in queued_copies(sim):
                copies_read += 1
                if peer in crash_at:
                    assert at < crash_at[peer], (at, peer)
            if ev.kind == DELIVER and ev.target in crash_at:
                delivered_to_crashed += 1
        assert copies_read > 0
        # The crashed validators took part before their crash, and the
        # others kept broadcasting to them after it.
        assert delivered_to_crashed > 0
        for tracer in sim.tracers:
            if tracer.node not in crash_at:
                assert tracer.records[-1]["at"] > max(crash_at.values())

    def test_no_copy_is_queued_for_a_validator_crashed_at_zero(self):
        for delta in (3, 1):
            self.check_no_copy_for_validators_crashed_at_zero(delta)

    def check_no_copy_for_validators_crashed_at_zero(self, delta):
        cfg = parse_config(
            {
                "stakes": [1] * 7,
                "Delta": delta,
                "GST": 20,
                "preGstPolicy": "random:5",
                "faultPlan": [[1, 0], [4, 0]],
                "stop": {"maxRound": 20},
                "seed": 4,
            }
        )
        sim = Simulation(cfg)
        copies_read = 0
        while (ev := sim.step()) is not None:
            assert not (ev.kind == DELIVER and ev.target in (1, 4)), ev
            peers = [peer for _, peer in queued_copies(sim)]
            assert 1 not in peers and 4 not in peers
            copies_read += len(peers)
        assert copies_read > 0
        for tracer in sim.tracers:
            if tracer.node not in (1, 4):
                assert (20, tracer.node) in [r["id"] for r in tracer.records if r["kind"] == "vertex-created"]


def drive(cfg, per_copy=False):
    """Run ``cfg`` to its stop condition as ``run`` does, one step at a time.

    Steps go through the calendar or, with ``per_copy``, through the
    reference loop's own ``(at, seq)`` heap. Returns the simulation and, per
    event returned, ``(at, kind, target, vertex id, ran)``, where ``ran`` says
    whether ``events_executed`` grew.
    """
    sim = Simulation(cfg)
    if per_copy:
        reference = PerCopyLoop(sim)
        step, next_tick = reference.step, reference.next_tick
    else:
        step, next_tick = sim.step, lambda: sim._queue[0] if sim._queue else None
    stop = cfg.max_time if cfg.max_time is not None else float("inf")
    events = []
    while (at := next_tick()) is not None and at <= stop:
        executed = sim.events_executed
        ev = step()
        vid = ev.vertex.id if ev.vertex is not None else None
        events.append((ev.at, ev.kind, ev.target, vid, sim.events_executed > executed))
    return sim, events


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
# Delta 1 across GST: drawn delays before it, every peer's copy one tick after
# its send after it, a creator crashing mid-run and one crashed at t=0.
delta_one_across_gst = example(
    {
        "stakes": [1] * 7,
        "GST": 12,
        "Delta": 1,
        "preGstPolicy": "random:5",
        "faultPlan": [[3, 0], [5, 19]],
        "stop": {"maxRound": 16},
        "seed": 8,
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
    """Queueing by per-tick buckets changes nothing a run shows, the random
    stream included."""

    @pytest.mark.filterwarnings("ignore:fault plan crashes")
    @settings(max_examples=100, deadline=None)
    @given(equivalence_scenarios)
    @lone_creator
    @delta_one_across_gst
    @crashes_cut_by_max_time
    def test_matches_the_per_copy_loop(self, raw):
        # The reference queues every copy on its own in a (time, seq) heap.
        cfg = parse_config(raw)
        (fast, fast_events), (slow, slow_events) = drive(cfg), drive(cfg, per_copy=True)
        assert [serialize(t.node, t.records) for t in fast.tracers] == [
            serialize(t.node, t.records) for t in slow.tracers
        ]
        assert fast_events == slow_events
        assert (fast.now, fast.events_executed) == (slow.now, slow.events_executed)
        assert fast.rng.getstate() == slow.rng.getstate()

    @pytest.mark.filterwarnings("ignore:fault plan crashes")
    @settings(max_examples=50, deadline=None)
    @given(equivalence_scenarios)
    @lone_creator
    @delta_one_across_gst
    @crashes_cut_by_max_time
    def test_no_delivery_reaches_a_crashed_node_or_a_held_vertex(self, raw):
        # Every copy that runs is a first delivery at a live node, which is
        # why Node.on_deliver does nothing more for any other copy than
        # return None.
        cfg = parse_config(raw)
        sim = Simulation(cfg)
        delivered = []
        for node in sim.nodes:

            def on_deliver(v, now, node=node, deliver=node.on_deliver):
                assert not node.crashed, (node.me, v.id, now)
                assert v.id not in node.dag and v.id not in node.pending, (node.me, v.id, now)
                delivered.append((now, node.me, v.id))
                return deliver(v, now)

            node.on_deliver = on_deliver
        stop = cfg.max_time if cfg.max_time is not None else float("inf")
        executed = []
        while sim._queue and sim._queue[0] <= stop:
            before = sim.events_executed
            ev = sim.step()
            if ev.kind == DELIVER and sim.events_executed > before:
                executed.append((ev.at, ev.target, ev.vertex.id))
        assert executed == delivered


class TestOneCopyPerPeer:
    """Each vertex reaches each validator alive when its copy lands exactly
    once, by the synchrony bound, and every copy that pops runs."""

    @staticmethod
    def check_one_copy_per_live_peer(raw):
        cfg = parse_config(raw)
        crash_at = dict(cfg.fault_plan)
        sim = Simulation(cfg)
        stop = cfg.max_time if cfg.max_time is not None else float("inf")
        landings = defaultdict(list)
        while sim._queue and sim._queue[0] <= stop:
            executed = sim.events_executed
            ev = sim.step()
            if ev.kind == DELIVER:
                assert sim.events_executed == executed + 1, ev
                landings[ev.vertex.id, ev.target].append(ev.at)
        # A maxTime stop leaves copies queued; they count as sent.
        for bucket in sim._buckets.values():
            for ev in bucket:
                if ev.kind == DELIVER:
                    landings[ev.vertex.id, ev.target].append(ev.at)
        sent = {r["id"]: r["at"] for t in sim.tracers for r in t.records if r["kind"] == "vertex-created"}
        assert {vid for vid, _ in landings} == sent.keys()
        for vid, sent_at in sent.items():
            bound = max(sent_at, cfg.gst) + cfg.delta
            for peer in range(cfg.n):
                dies = crash_at.get(peer, float("inf"))
                ticks = landings.get((vid, peer))
                if ticks is None:
                    # Its copy would have landed at or after its crash.
                    assert dies <= bound, (vid, peer)
                    continue
                [at] = ticks
                assert at < dies, (vid, peer, at)
                assert at == sent_at if peer == vid[1] else sent_at < at <= bound, (vid, peer, at)

    @pytest.mark.filterwarnings("ignore:fault plan crashes")
    @settings(max_examples=60, deadline=None)
    @given(equivalence_scenarios)
    @lone_creator
    @delta_one_across_gst
    @crashes_cut_by_max_time
    def test_one_copy_per_live_peer(self, raw):
        self.check_one_copy_per_live_peer(raw)

    @pytest.mark.filterwarnings("ignore:fault plan crashes")
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_one_copy_per_live_peer_on_the_corpus(self, name):
        self.check_one_copy_per_live_peer(CORPUS[name][0])


class TestCommitLog:
    """The ordered log over the equivalence configs, against the reference rule."""

    @pytest.mark.filterwarnings("ignore:fault plan crashes")
    @settings(max_examples=30, deadline=None)
    @given(equivalence_scenarios)
    @lone_creator
    @delta_one_across_gst
    @crashes_cut_by_max_time
    # Split views: back-chained commits, discarded anchors, schedule switches.
    @example(CORPUS["n4-split-10"][0])
    @example(CORPUS["n4-split-689"][0])
    def test_ordered_log_is_each_new_history_sorted(self, raw):
        # Each committed anchor appends its causal history minus the log so
        # far, sorted by (round, source).
        for node in run(parse_config(raw)).nodes:
            want = []
            for rec in node.tracer.records:
                if rec["kind"] == "anchor-committed":
                    history = naive_ancestors(node.dag, (rec["round"], rec["leader"]))
                    want.extend(sorted(history - set(want)))
            log = commit_log(node.tracer.records)
            seq = [vid for vid, _ in log]
            assert seq == want
            assert len(set(seq)) == len(seq)
            anchor_rounds = [r for _, r in log]
            assert anchor_rounds == sorted(anchor_rounds)
            assert node.commit.ordered_sources == source_masks(seq)

class TestHandlerCalls:
    """Every counted event calls a handler, and every call acts: the simulator
    alone keeps a crashed validator inert and retires timers whose round has
    passed."""

    @staticmethod
    def check_every_counted_event_acts(raw):
        cfg = parse_config(raw)
        crash_at = dict(cfg.fault_plan)
        sim = Simulation(cfg)
        calls = []
        for node in sim.nodes:
            for name in ("boot", "on_deliver", "on_timer"):

                def call(*args, node=node, name=name, handler=getattr(node, name)):
                    now, wait_round, before = args[-1], node.current_round, len(node.tracer.records)
                    assert now < crash_at.get(node.me, float("inf")), (name, node.me, now)
                    effects = handler(*args)
                    if name == "on_timer":
                        timeouts = [r for r in node.tracer.records[before:] if r["kind"] == "leader-timeout"]
                        assert timeouts == [{"at": now, "kind": "leader-timeout", "round": wait_round}]
                    calls.append(now)
                    return effects

                setattr(node, name, call)
        stop = cfg.max_time if cfg.max_time is not None else float("inf")
        while sim._queue and sim._queue[0] <= stop:
            sim.step()
        assert sim.events_executed == len(calls)
        assert sim.now == (calls[-1] if calls else 0)

    @pytest.mark.filterwarnings("ignore:fault plan crashes")
    @settings(max_examples=60, deadline=None)
    @given(equivalence_scenarios)
    @lone_creator
    @delta_one_across_gst
    @crashes_cut_by_max_time
    def test_every_counted_event_acts(self, raw):
        self.check_every_counted_event_acts(raw)

    @pytest.mark.filterwarnings("ignore:fault plan crashes")
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_every_counted_event_acts_on_the_corpus(self, name):
        self.check_every_counted_event_acts(CORPUS[name][0])

    def test_a_crash_after_the_run_does_not_move_the_end(self):
        # The run ends as it does without the crash, at tick 20: vertex
        # (10, 3), made at 18, reaches two peers after the full Delta of 2.
        raw = {"stakes": [1] * 4, "stop": {"maxRound": 10}}
        late = run(parse_config({**raw, "faultPlan": [[0, 10**6]]}))
        assert late.end_time == run(parse_config(raw)).end_time == 20
        assert late.nodes[0].crashed


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
            position = {vid: i for i, (vid, _) in enumerate(commit_log(node.tracer.records))}
            for vid in position:
                for s in parent_sources(node.dag.get(vid)):
                    assert position[(vid[0] - 1, s)] < position[vid]


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
