import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdag.dag import (
    AnchorReach,
    DagState,
    InsertOutcome,
    UnknownVertex,
    Vertex,
    VertexId,
    causal_history,
    path,
)
from repdag.reputation import (
    NotAnchorRound,
    Schedule,
    ScheduleBook,
    UncoveredRound,
    get_anchor,
)

from .conftest import full_dag, mk_vertex, random_dag_vertices
from .oracles import naive_path, parent_sources, parents_complete


def grouped(vids):
    """Vertex ids as ``causal_history`` rows hold them: one row per round,
    highest round first, each row in ascending source order."""
    rounds = sorted({vid.round for vid in vids}, reverse=True)
    return [sorted(vid for vid in vids if vid.round == r) for r in rounds]


def row_ids(rows):
    return [[v.id for v in row] for row in rows]


def source_masks(vids):
    """Per round, the sources of ``vids`` as a bitmask: the form of ``exclude``."""
    masks = {}
    for vid in vids:
        masks[vid.round] = masks.get(vid.round, 0) | 1 << vid.source
    return masks


class TestInsert:
    def test_genesis_into_empty_dag(self, committee4):
        dag = DagState(committee4)
        assert dag.insert(mk_vertex(0, 0)) is InsertOutcome.INSERTED
        assert VertexId(0, 0) in dag
        assert dag.highest_round == 0

    def test_round_one_with_quorum_edges(self, committee4):
        dag = DagState(committee4)
        genesis = [mk_vertex(0, s) for s in range(3)]
        for g in genesis:
            dag.insert(g)
        v = mk_vertex(1, 0, [g.source for g in genesis])
        assert dag.insert(v) is InsertOutcome.INSERTED
        assert dag.highest_round == 1

    def test_missing_parent_rejected(self, committee4):
        dag = full_dag(committee4, 1, absent={(1, 3)})
        orphan = mk_vertex(2, 0, [0, 1, 3])
        assert dag.insert(orphan) is InsertOutcome.MISSING_PARENTS
        assert orphan.id not in dag

    def test_duplicate_rejected(self, committee4):
        dag = DagState(committee4)
        dag.insert(mk_vertex(0, 2))
        assert dag.insert(mk_vertex(0, 2)) is InsertOutcome.DUPLICATE

    def test_malformed_edges_rejected(self, committee4):
        dag = full_dag(committee4, 1)
        too_few = mk_vertex(2, 0, [0, 1])
        assert dag.insert(too_few) is InsertOutcome.MALFORMED_EDGES
        # The rest of a vertex's shape is checked once, when it is built.
        for round, parents in (
            (0, [0]),  # genesis with parents
            (-1, []),  # negative round
        ):
            with pytest.raises(ValueError, match="malformed vertex"):
                mk_vertex(round, 3, parents)

    def test_negative_ids_rejected(self):
        # A negative parent has no bit, so a negative mask stands in for it.
        for source, mask in ((0, -1), (-1, 0b111)):
            with pytest.raises(ValueError, match="malformed vertex"):
                Vertex(VertexId(1, source), mask)

    def test_a_vertex_is_an_immutable_value(self):
        v = mk_vertex(1, 2, [0, 1, 3])
        assert (v.id, v.mask, v.round, v.source) == (VertexId(1, 2), 0b1011, 1, 2)
        assert v == mk_vertex(1, 2, [3, 1, 0]) and hash(v) == hash(mk_vertex(1, 2, [0, 1, 3]))
        assert v != mk_vertex(1, 2, [0, 1, 2])
        for field in ("id", "mask", "round", "source"):
            with pytest.raises(AttributeError):
                setattr(v, field, 0)
            with pytest.raises(AttributeError):
                delattr(v, field)

    def test_out_of_range_ids_rejected(self, committee4):
        # A parent id >= n would wait in ``pending`` for ever, and a source
        # >= n would count toward its round's quorum.
        dag = full_dag(committee4, 1)
        for round, source, parents in (
            (2, 0, [0, 1, 4]),  # parent past n
            (2, 4, [0, 1, 2]),  # source past n
            (0, 4, []),  # genesis source past n
        ):
            assert dag.insert(mk_vertex(round, source, parents)) is InsertOutcome.MALFORMED_EDGES
        assert sorted(dag.vertices_at(0)) == [0, 1, 2, 3]
        assert dag.vertices_at(2) == {}

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=10**6))
    def test_mask_check_matches_the_set_test(self, n, seed):
        """``insert`` decides as the old rule, ``vertices_at(r - 1).keys() >= parents``,
        after a set test of the ids against the committee."""
        from repdag.committee import new_committee

        committee = new_committee([1] * n)
        quorum = committee.quorum_threshold
        rng = random.Random(seed)
        vertices = random_dag_vertices(rng, committee, 5)
        rounds = max(v.round for v in vertices)
        # Parents that are never created (absent sources), source and parent
        # ids past n, and vertices with fewer than quorum parents.
        for _ in range(n):
            r, s = rng.randint(1, rounds + 1), rng.randrange(n + 1)
            k = rng.randint(quorum, n)
            extra = rng.sample(range(n + 3), k) if rng.random() < 0.3 else rng.sample(range(n), k)
            vertices.append(mk_vertex(r, s, extra))
            vertices.append(mk_vertex(r, s, rng.sample(range(n), rng.randint(1, quorum - 1))))
        # Random delivery order, with duplicates.
        order = vertices + rng.choices(vertices, k=len(vertices) // 3)
        rng.shuffle(order)

        dag, pending, outcomes = DagState(committee), [], Counter()

        members = set(committee.members)

        def deliver(v):
            parents = parent_sources(v)
            if (v.round and len(parents) < quorum) or v.source not in members or not parents <= members:
                want = InsertOutcome.MALFORMED_EDGES
            elif v.id in dag:
                want = InsertOutcome.DUPLICATE
            elif not parents_complete(dag, v):
                want = InsertOutcome.MISSING_PARENTS
            else:
                want = InsertOutcome.INSERTED
            got = dag.insert(v)
            assert got is want, (v, got, want)
            outcomes[got] += 1
            return got

        for v in order:
            if deliver(v) is InsertOutcome.MISSING_PARENTS:
                pending.append(v)
            # Retry the buffered vertices until none goes in.
            while any([deliver(p) is InsertOutcome.INSERTED for p in pending]):
                pending = [p for p in pending if p.id not in dag]
        assert set(outcomes) == set(InsertOutcome)
        assert dag.held == {r: sum(1 << s for s in row) for r, row in dag.by_round.items()}


class TestPath:
    def test_reflexive(self, committee4):
        dag = DagState(committee4)
        dag.insert(mk_vertex(0, 0))
        assert path(dag, VertexId(0, 0), VertexId(0, 0))

    def test_linear_chain(self):
        from repdag.committee import new_committee

        solo = new_committee([1])  # quorum of one keeps the chain minimal
        dag = DagState(solo)
        g = mk_vertex(0, 0)
        a = mk_vertex(1, 0, [g.source])
        b = mk_vertex(2, 0, [a.source])
        for v in (g, a, b):
            assert dag.insert(v) is InsertOutcome.INSERTED
        assert path(dag, b.id, g.id)
        assert not path(dag, g.id, b.id)

    def test_disjoint_genesis_unreachable(self, committee4):
        dag = DagState(committee4)
        dag.insert(mk_vertex(0, 0))
        dag.insert(mk_vertex(0, 1))
        assert not path(dag, VertexId(0, 0), VertexId(0, 1))

    def test_unknown_start_raises(self, committee4):
        dag = DagState(committee4)
        with pytest.raises(UnknownVertex):
            path(dag, VertexId(0, 0), VertexId(0, 1))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(st.integers(min_value=1, max_value=5), min_size=4, max_size=10),
        st.integers(min_value=0, max_value=7),
    )
    def test_matches_naive_dfs(self, seed, stakes, min_round):
        from repdag.committee import new_committee

        committee = new_committee(stakes)
        rng = random.Random(seed)
        vertices = random_dag_vertices(rng, committee, 6)
        dag = DagState(committee)
        for v in vertices:
            dag.insert(v)
        probes = rng.sample(vertices, k=min(12, len(vertices)))
        for a in probes:
            for b in probes:
                assert path(dag, a.id, b.id) == naive_path(dag, a.id, b.id)
                if path(dag, a.id, b.id):
                    assert b.round <= a.round

        def ancestors(vid):
            return {v.id for v in vertices if naive_path(dag, vid, v.id)}

        # A union of histories is downward closed, like a node's ordered set.
        closed = set().union(*(ancestors(v.id) for v in rng.sample(vertices, k=2)))
        for a in probes:
            want = {vid for vid in ancestors(a.id) if vid.round >= min_round}
            assert row_ids(causal_history(dag, a.id, min_round=min_round)) == grouped(want)
            got = causal_history(dag, a.id, min_round=min_round, exclude=source_masks(closed))
            assert row_ids(got) == grouped(want - closed)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(st.integers(min_value=1, max_value=5), min_size=4, max_size=12),
    )
    def test_rows_are_the_history_by_round(self, seed, stakes):
        from repdag.committee import new_committee

        committee = new_committee(stakes)
        rng = random.Random(seed)
        vertices = random_dag_vertices(rng, committee, 6)
        dag = DagState(committee)
        for v in vertices:
            assert dag.insert(v) is InsertOutcome.INSERTED

        def ancestors(vid):
            return {v.id for v in vertices if naive_path(dag, vid, v.id)}

        closed = set().union(*(ancestors(v.id) for v in rng.sample(vertices, k=2)))
        for a in rng.sample(vertices, k=min(10, len(vertices))):
            rows = causal_history(dag, a.id)
            # Anchor round first, one row per round down to genesis.
            assert [row[0].round for row in rows] == list(range(a.round, -1, -1))
            assert row_ids(rows) == grouped(ancestors(a.id))
            for row in rows:
                sources = [v.source for v in row]
                assert sources == sorted(set(sources))
            got = causal_history(dag, a.id, exclude=source_masks(closed))
            assert row_ids(got) == grouped(ancestors(a.id) - closed)
            assert all(got)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_insert_order_independence(self, seed):
        from repdag.committee import new_committee

        committee = new_committee([1, 1, 1, 1])
        rng = random.Random(seed)
        vertices = random_dag_vertices(rng, committee, 5)

        def build(order):
            dag = DagState(committee)
            pending = list(order)
            while pending:
                before = len(pending)
                pending = [v for v in pending if dag.insert(v) is not InsertOutcome.INSERTED]
                assert len(pending) < before, "no causally valid progress"
            return dag

        reference = build(vertices)
        shuffled = vertices[:]
        rng.shuffle(shuffled)
        other = build(shuffled)
        assert reference.by_round == other.by_round

    def test_causal_completeness_full_walk(self, committee4):
        dag = full_dag(committee4, 4)
        for r, row in dag.by_round.items():
            for s in row:
                rows = causal_history(dag, VertexId(r, s))
                assert all(v is dag.get(v.id) for got in rows for v in got)
                # Every vertex names every vertex one round below it.
                below = [[VertexId(q, t) for t in committee4.members] for q in range(r - 1, -1, -1)]
                assert row_ids(rows) == [[VertexId(r, s)], *below]


class TestAnchorReach:
    def test_agrees_with_path(self, committee4):
        rng = random.Random(7)
        vertices = random_dag_vertices(rng, committee4, 6)
        dag = DagState(committee4)
        for v in vertices:
            dag.insert(v)
        target = vertices[2].id
        reach = AnchorReach(dag, target, max_round=dag.highest_round)
        for v in vertices:
            assert reach.covers(v.id) == path(dag, v.id, target)


class TestLeaders:
    def test_first_slot(self):
        s = Schedule(epoch=0, initial_round=0, slots=(0, 1, 2, 3))
        assert s.leader_for(0) == 0

    def test_cyclic_index(self):
        # rounds 0, 2, 4, 6 walk slots 0, 1, 2, 3 in order
        s = Schedule(epoch=0, initial_round=0, slots=(0, 1, 2, 3))
        assert [s.leader_for(r) for r in (0, 2, 4, 6)] == [0, 1, 2, 3]
        assert s.leader_for(8) == 0

    def test_second_schedule_takes_over(self):
        book = ScheduleBook(Schedule(epoch=0, initial_round=0, slots=(0, 1, 2, 3)))
        book.append(Schedule(epoch=1, initial_round=10, slots=(1, 2, 3, 1)))
        assert book.leader_for(8) == 0
        assert book.leader_for(10) == 1
        assert book.leader_for(12) == 2

    def test_odd_round_rejected(self):
        s = Schedule(epoch=0, initial_round=0, slots=(0, 1))
        with pytest.raises(NotAnchorRound):
            s.leader_for(3)

    def test_uncovered_round_rejected(self):
        s = Schedule(epoch=2, initial_round=10, slots=(0, 1))
        with pytest.raises(UncoveredRound):
            s.leader_for(8)

    def test_deterministic_across_replicas(self, committee4):
        rng = random.Random(3)
        vertices = random_dag_vertices(rng, committee4, 6)
        book = ScheduleBook(Schedule(epoch=0, initial_round=0, slots=(2, 0, 3, 1)))
        dag_a = DagState(committee4)
        for v in vertices:
            dag_a.insert(v)
        shuffled = vertices[:]
        rng.shuffle(shuffled)
        dag_b = DagState(committee4)
        pending = shuffled
        while pending:
            pending = [v for v in pending if dag_b.insert(v) is not InsertOutcome.INSERTED]
        for r in range(0, dag_a.highest_round + 1, 2):
            va = get_anchor(dag_a, book, r)
            vb = get_anchor(dag_b, book, r)
            assert (va.id if va else None) == (vb.id if vb else None)


class TestGetAnchor:
    def test_present_anchor(self, committee4):
        dag = full_dag(committee4, 2)
        book = ScheduleBook(Schedule(epoch=0, initial_round=0, slots=(0, 1, 2, 3)))
        anchor = get_anchor(dag, book, 2)
        assert anchor is not None and anchor.id == VertexId(2, 1)

    def test_crashed_leader_absent(self, committee4):
        dag = full_dag(committee4, 2, absent={(2, 1)})
        book = ScheduleBook(Schedule(epoch=0, initial_round=0, slots=(0, 1, 2, 3)))
        assert get_anchor(dag, book, 2) is None

    def test_lookup_reflects_dag_contents(self, committee4):
        dag = full_dag(committee4, 1)
        book = ScheduleBook(Schedule(epoch=0, initial_round=0, slots=(0, 2, 1, 3)))
        assert get_anchor(dag, book, 2) is None
        late = mk_vertex(2, 2, range(4))
        dag.insert(late)
        assert get_anchor(dag, book, 2).id == late.id
