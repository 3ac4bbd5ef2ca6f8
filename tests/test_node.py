from collections import Counter

import pytest

from repdag.config import parse_config
from repdag.node import Effects, Node
from repdag.reputation import Schedule
from repdag.simnet import Simulation
from repdag.traces import Tracer

from .conftest import mk_vertex
from .oracles import parent_sources


def make_node(
    committee, me=3, slots=(0, 1, 2, 3), timeout=4, batch=8, cap=50, supply=lambda node, now: 0, span=10
):
    return Node(
        me=me,
        committee=committee,
        genesis_schedule=Schedule(epoch=0, initial_round=0, slots=tuple(slots)),
        tracer=Tracer(me),
        leader_timeout=timeout,
        batch_size=batch,
        round_cap=cap,
        switch_span=span,
        exclusion_fraction=0.33,
        tx_supply=supply,
    )


def kinds(node):
    return [r["kind"] for r in node.tracer.records]


class TestDelivery:
    def test_quorum_with_leader_advances_immediately(self, committee4):
        node = make_node(committee4)
        node.boot(0)
        node.on_deliver(node.dag.get((0, 3)) or mk_vertex(0, 3), 0)  # self delivery
        node.on_deliver(mk_vertex(0, 0), 1)  # leader(0) = 0 present
        effects = node.on_deliver(mk_vertex(0, 1), 2)
        assert node.current_round == 1
        assert isinstance(effects, Effects) and effects.timers == []
        created = [v for v in effects.broadcasts if v.source == 3 and v.round == 1]
        assert len(created) == 1
        assert parent_sources(created[0]) == {0, 1, 3}

    def test_missing_parent_buffers_until_drained(self, committee4):
        node = make_node(committee4)
        early = mk_vertex(1, 0, [0, 1, 2])
        node.on_deliver(early, 0)
        assert early.id in node.pending
        assert early.id not in node.dag
        for s in range(3):
            node.on_deliver(mk_vertex(0, s), 1)
        assert early.id in node.dag
        assert not node.pending

    # Sending vertices is the simulator's job, so a node returns only what
    # it creates, and None when it creates nothing and arms no timer.
    def test_duplicate_delivery_changes_nothing(self, committee4):
        node = make_node(committee4)
        v = mk_vertex(0, 0)
        assert node.on_deliver(v, 0) is None  # below quorum
        records_before = len(node.tracer.records)
        assert node.on_deliver(v, 1) is None
        assert len(node.tracer.records) == records_before

    def test_own_vertex_not_echoed(self, committee4):
        node = make_node(committee4)
        boot = node.boot(0)
        assert isinstance(boot, Effects) and boot.timers == []
        own = boot.broadcasts[0]
        assert node.on_deliver(own, 0) is None
        assert own.id in node.dag

    def test_commit_only_copy_returns_none(self, committee4):
        # Full rounds 0-3, the node's own vertices fed back to it; its own
        # round-4 vertex then commits the round-2 anchor and creates nothing.
        node = make_node(committee4)
        own = node.boot(0).broadcasts
        for r in range(4):
            for v in [own[-1]] + [mk_vertex(r, s, range(4) if r else []) for s in (0, 1, 2)]:
                if (effects := node.on_deliver(v, r + 1)) is not None:
                    own += effects.broadcasts
        assert own[-1].id == (4, 3) and node.current_round == 4
        before = len(node.tracer.records)
        assert node.on_deliver(own[-1], 5) is None
        assert kinds(node)[before:] == ["vertex-delivered", "anchor-committed"]


class TestLeaderWait:
    def boot_with_quorum_no_leader(self, committee4):
        node = make_node(committee4)
        node.on_deliver(node.boot(0).broadcasts[0], 0)
        node.on_deliver(mk_vertex(0, 1), 1)
        effects = node.on_deliver(mk_vertex(0, 2), 2)  # quorum, leader 0 absent
        return node, effects

    def test_waits_before_deadline(self, committee4):
        node, effects = self.boot_with_quorum_no_leader(committee4)
        assert node.current_round == 0
        assert isinstance(effects, Effects) and effects.broadcasts == []
        assert effects.timers == [2 + 4]
        assert node.leader_wait_deadline == 6
        # More deliveries and timers before the deadline neither re-arm nor
        # advance: the wait is armed once.
        assert node.on_deliver(mk_vertex(1, 1, [1, 2, 3]), 3) is None
        assert node.on_timer(4) is None
        assert node.current_round == 0 and node.leader_wait_deadline == 6

    def test_timeout_emits_without_leader_edge(self, committee4):
        node, _ = self.boot_with_quorum_no_leader(committee4)
        effects = node.on_timer(6)
        assert node.current_round == 1
        vertex = effects.broadcasts[0]
        assert 0 not in parent_sources(vertex)
        assert len(parent_sources(vertex)) == 3
        assert "leader-timeout" in kinds(node)

    def test_leader_arrival_cancels_wait(self, committee4):
        node, _ = self.boot_with_quorum_no_leader(committee4)
        effects = node.on_deliver(mk_vertex(0, 0), 3)
        assert node.current_round == 1
        assert 0 in parent_sources(effects.broadcasts[-1])
        assert "leader-timeout" not in kinds(node)

    def test_odd_round_advances_on_quorum_alone(self, committee4):
        node = make_node(committee4)
        node.on_deliver(node.boot(0).broadcasts[0], 0)
        node.on_deliver(mk_vertex(0, 0), 0)
        effects = node.on_deliver(mk_vertex(0, 1), 0)
        assert node.current_round == 1
        own1 = effects.broadcasts[-1]
        assert own1.id == (1, 3)
        node.on_deliver(own1, 1)  # self delivery of our round-1 vertex
        genesis = [0, 1, 3]
        node.on_deliver(mk_vertex(1, 0, genesis), 2)
        effects = node.on_deliver(mk_vertex(1, 1, genesis), 3)
        # quorum at the odd round: the round-2 vertex goes out with no
        # leader gate and no timer
        assert node.current_round == 2
        assert effects.broadcasts[-1].id == (2, 3)
        assert effects.timers == []

    def test_round_cap_stops_vertex_creation(self, committee4):
        node = make_node(committee4, cap=0)
        node.on_deliver(node.boot(0).broadcasts[0], 0)
        effects = [node.on_deliver(mk_vertex(0, s), 1) for s in (0, 1, 2)]
        assert node.current_round == 0
        assert effects == [None, None, None]


class TestCreateVertex:
    def test_empty_queue_heartbeat(self, committee4):
        node = make_node(committee4, supply=lambda me, now: 0)
        v = node.boot(0).broadcasts[0]
        assert v.id == (0, 3)
        assert node.tracer.records[0]["txCount"] == 0

    def test_batch_caps_drain(self, committee4):
        node = make_node(committee4, supply=lambda me, now: 5, batch=3)
        node.boot(7)
        assert node.backlog == 2
        record = node.tracer.records[0]
        assert record["kind"] == "vertex-created" and record["txCount"] == 3

    def test_edges_reference_all_held_parents(self, committee4):
        node = make_node(committee4)
        node.on_deliver(node.boot(0).broadcasts[0], 0)
        effects = [node.on_deliver(mk_vertex(0, s), 1) for s in (0, 1, 2)]
        # Below quorum, the quorum advance, then a copy past quorum.
        assert effects[0] is None and effects[2] is None
        own1 = [v for v in effects[1].broadcasts if v.id == (1, 3)]
        assert len(own1) == 1, "round-1 vertex should have been created once"
        assert node.current_round == 1
        # The quorum formed with genesis 1; genesis 2 came after the vertex was made.
        assert parent_sources(own1[0]) == {3, 0, 1}

    def test_backlog_conserves_supplied_transactions(self, committee4):
        node = make_node(committee4, supply=lambda me, now: 5, batch=3)
        own = node.boot(0).broadcasts

        def created():
            return [r for r in node.tracer.records if r["kind"] == "vertex-created"]

        for r in range(4):
            parents = range(4) if r else []
            for v in [own[-1]] + [mk_vertex(r, s, parents) for s in (0, 1, 2)]:
                if (effects := node.on_deliver(v, r + 1)) is not None:
                    own += [b for b in effects.broadcasts if b.source == 3]
                assert node.backlog == 2 * len(created())
        records = created()
        assert len(records) == 5  # genesis and rounds 1 to 4
        assert all(rec["txCount"] == 3 for rec in records)
        assert sum(rec["txCount"] for rec in records) + node.backlog == 5 * len(records)


class TestReturnContract:
    """Over whole runs, a handler returns None exactly when it creates no
    vertex and arms no leader-wait deadline, and otherwise what it did."""

    @pytest.mark.parametrize(
        "raw",
        [
            {"stakes": [1] * 7, "Delta": 3, "leaderTimeout": 2, "faultPlan": [[2, 0], [5, 20]], "seed": 4},
            {"stakes": [1] * 4, "Delta": 1, "GST": 15, "preGstPolicy": "random:5", "seed": 1},
        ],
    )
    def test_none_exactly_when_nothing_is_created_or_armed(self, raw):
        sim = Simulation(parse_config({**raw, "stop": {"maxRound": 24}}))
        seen = Counter()

        def watched(node, handler, kind):
            def call(*args):
                records, deadline = len(node.tracer.records), node.leader_wait_deadline
                effects = handler(*args)
                new = node.tracer.records[records:]
                created = [rec["id"] for rec in new if rec["kind"] == "vertex-created"]
                armed = node.leader_wait_deadline not in (None, deadline)
                if effects is None:
                    assert not created and not armed
                    commits = any(rec["kind"] == "anchor-committed" for rec in new)
                    seen[kind, "none", "commit" if commits else "quiet"] += 1
                else:
                    assert [v.id for v in effects.broadcasts] == created
                    assert effects.timers == ([node.leader_wait_deadline] if armed else [])
                    assert created or armed
                    seen[kind, "effects", "timer" if armed else "vertex"] += 1
                return effects

            return call

        for node in sim.nodes:
            node.boot = watched(node, node.boot, "boot")
            node.on_deliver = watched(node, node.on_deliver, "deliver")
            node.on_timer = watched(node, node.on_timer, "timer")
        while sim.step() is not None:
            pass
        booted = sum(at > 0 for at in sim._crash_at)
        # A validator crashed at 0 is never booted.
        boots = {key: count for key, count in seen.items() if key[0] == "boot"}
        assert boots == {("boot", "effects", "vertex"): booted}
        for outcome in (("none", "quiet"), ("none", "commit"), ("effects", "vertex"), ("effects", "timer")):
            assert seen[("deliver", *outcome)] > 0, (outcome, seen)
