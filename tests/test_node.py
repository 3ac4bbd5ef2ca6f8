from repdag.dag import VertexId
from repdag.node import Node
from repdag.reputation import Schedule
from repdag.traces import Tracer

from .conftest import mk_vertex


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
        node.on_deliver(node.dag.get(VertexId(0, 3)) or mk_vertex(0, 3), 0)  # self delivery
        node.on_deliver(mk_vertex(0, 0), 1)  # leader(0) = 0 present
        effects = node.on_deliver(mk_vertex(0, 1), 2)
        assert node.current_round == 1
        created = [v for v in effects.broadcasts if v.source == 3 and v.round == 1]
        assert len(created) == 1
        assert created[0].parents == {0, 1, 3}

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

    # The echo of a delivered vertex is the simulator's, so a node returns
    # only what it creates (tests/test_simnet.py::TestEcho).
    def test_duplicate_delivery_changes_nothing(self, committee4):
        node = make_node(committee4)
        v = mk_vertex(0, 0)
        first = node.on_deliver(v, 0)
        assert first.broadcasts == [] and first.timers == []
        records_before = len(node.tracer.records)
        second = node.on_deliver(v, 1)
        assert second.broadcasts == [] and second.timers == []
        assert len(node.tracer.records) == records_before

    def test_own_vertex_not_echoed(self, committee4):
        node = make_node(committee4)
        boot = node.boot(0)
        own = boot.broadcasts[0]
        effects = node.on_deliver(own, 0)
        assert effects.broadcasts == []
        assert own.id in node.dag

    def test_crashed_node_is_inert(self, committee4):
        node = make_node(committee4)
        node.crashed = True
        effects = node.on_deliver(mk_vertex(0, 0), 0)
        assert effects.broadcasts == [] and effects.timers == []
        assert VertexId(0, 0) not in node.dag


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
        assert effects.timers == [2 + 4]
        assert node.leader_wait_deadline == 6
        # more deliveries before the deadline do not re-arm or advance
        effects2 = node.on_timer(4)
        assert node.current_round == 0 and effects2.broadcasts == []

    def test_timeout_emits_without_leader_edge(self, committee4):
        node, _ = self.boot_with_quorum_no_leader(committee4)
        effects = node.on_timer(6)
        assert node.current_round == 1
        vertex = effects.broadcasts[0]
        assert 0 not in vertex.parents
        assert len(vertex.parents) == 3
        assert "leader-timeout" in kinds(node)

    def test_leader_arrival_cancels_wait(self, committee4):
        node, _ = self.boot_with_quorum_no_leader(committee4)
        effects = node.on_deliver(mk_vertex(0, 0), 3)
        assert node.current_round == 1
        assert 0 in effects.broadcasts[-1].parents
        assert "leader-timeout" not in kinds(node)

    def test_odd_round_advances_on_quorum_alone(self, committee4):
        node = make_node(committee4)
        node.on_deliver(node.boot(0).broadcasts[0], 0)
        node.on_deliver(mk_vertex(0, 0), 0)
        effects = node.on_deliver(mk_vertex(0, 1), 0)
        assert node.current_round == 1
        own1 = effects.broadcasts[-1]
        assert own1.id == VertexId(1, 3)
        node.on_deliver(own1, 1)  # self delivery of our round-1 vertex
        genesis = [0, 1, 3]
        node.on_deliver(mk_vertex(1, 0, genesis), 2)
        effects = node.on_deliver(mk_vertex(1, 1, genesis), 3)
        # quorum at the odd round: the round-2 vertex goes out with no
        # leader gate and no timer
        assert node.current_round == 2
        assert effects.broadcasts[-1].id == VertexId(2, 3)
        assert effects.timers == []

    def test_round_cap_stops_vertex_creation(self, committee4):
        node = make_node(committee4, cap=0)
        node.on_deliver(node.boot(0).broadcasts[0], 0)
        for s in (0, 1, 2):
            effects = node.on_deliver(mk_vertex(0, s), 1)
        assert node.current_round == 0
        assert all(not e.broadcasts or e.broadcasts[0].round == 0 for e in [effects])


class TestCreateVertex:
    def test_empty_queue_heartbeat(self, committee4):
        node = make_node(committee4, supply=lambda me, now: 0)
        v = node.boot(0).broadcasts[0]
        assert v.id == VertexId(0, 3)
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
        own1 = [v for e in effects for v in e.broadcasts if v.id == VertexId(1, 3)]
        assert len(own1) == 1, "round-1 vertex should have been created once"
        assert node.current_round == 1
        # The quorum formed with genesis 1; genesis 2 came after the vertex was made.
        assert own1[0].parents == {3, 0, 1}

    def test_backlog_conserves_supplied_transactions(self, committee4):
        node = make_node(committee4, supply=lambda me, now: 5, batch=3)
        own = node.boot(0).broadcasts

        def created():
            return [r for r in node.tracer.records if r["kind"] == "vertex-created"]

        for r in range(4):
            parents = range(4) if r else []
            for v in [own[-1]] + [mk_vertex(r, s, parents) for s in (0, 1, 2)]:
                own += [b for b in node.on_deliver(v, r + 1).broadcasts if b.source == 3]
                assert node.backlog == 2 * len(created())
        records = created()
        assert len(records) == 5  # genesis and rounds 1 to 4
        assert all(rec["txCount"] == 3 for rec in records)
        assert sum(rec["txCount"] for rec in records) + node.backlog == 5 * len(records)
