import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdag.checks import ordered_sequence
from repdag.commit import (
    CommitState,
    anchor_votes,
    retro_recheck,
    try_committing,
    update_schedule,
)
from repdag.committee import new_committee
from repdag.dag import DagState
from repdag.reputation import Schedule, ScheduleBook, select_swap_sets

from .conftest import full_dag, mk_vertex, random_dag_vertices, replay
from .oracles import commit_log, naive_path, parent_sources
from .test_dag import source_masks


def fresh_state(committee, slots=(0, 1, 2, 3), span=None):
    return CommitState(
        committee=committee,
        book=ScheduleBook(Schedule(epoch=0, initial_round=0, slots=tuple(slots))),
        switch_span=span,
        exclusion_fraction=0.33,
    )


def tracer0():
    from repdag.traces import Tracer

    return Tracer(0)


def committed_anchors(tracer):
    return [(r["round"], r["leader"], r["direct"]) for r in tracer.records if r["kind"] == "anchor-committed"]


class TestTryCommitting:
    """Built on a full dag up to round two, three round-three vertices, and
    one round-four committer whose parents vote for the round-two anchor.
    The anchor sits above the last ordered round (0), so its round is still
    undecided and the vote count alone decides."""

    def build(self, committee, linking_parents):
        dag = full_dag(committee, 2)
        anchor = (2, 1)  # leader(2) = 1 under slots (0, 1, 2, 3)
        parents = []
        for s in range(3):
            links = [0, anchor[1], 2] if s < linking_parents else [0, 2, 3]
            parents.append(mk_vertex(3, s, links))
            dag.insert(parents[-1])
        committer = mk_vertex(4, 0, [p.source for p in parents])
        dag.insert(committer)
        return dag, committer, anchor

    def test_two_votes_commit(self, committee4):
        dag, committer, _ = self.build(committee4, linking_parents=2)
        state = fresh_state(committee4)
        assert try_committing(state, dag, committer, tracer0()) == 2

    def test_one_vote_is_not_enough(self, committee4):
        dag, committer, _ = self.build(committee4, linking_parents=1)
        state = fresh_state(committee4)
        tr = tracer0()
        assert try_committing(state, dag, committer, tr) is None
        assert commit_log(tr.records) == []

    def test_odd_round_is_a_no_op(self, committee4):
        dag = full_dag(committee4, 3)
        state = fresh_state(committee4)
        v = dag.get((3, 0))
        tr = tracer0()
        assert try_committing(state, dag, v, tr) is None
        assert commit_log(tr.records) == []

    def test_genesis_round_is_a_no_op(self, committee4):
        dag = full_dag(committee4, 0)
        state = fresh_state(committee4)
        assert try_committing(state, dag, dag.get((0, 0)), tracer0()) is None

    def test_absent_anchor_returns_none(self, committee4):
        dag = full_dag(committee4, 2, absent={(0, 0)})
        state = fresh_state(committee4)
        v = dag.get((2, 0))
        assert try_committing(state, dag, v, tracer0()) is None


class TestAnchorVotes:
    """The commit rule counts direct links; the oracle counts paths."""

    @pytest.mark.parametrize("stakes", [[1] * 4, [1] * 7])
    def test_direct_links_count_the_parents_with_a_path(self, stakes):
        committee = new_committee(stakes)
        counts = set()
        for trial in range(60):
            rng = random.Random(trial)
            vertices = random_dag_vertices(rng, committee, rng.randint(2, 8))
            dag = DagState(committee)
            for v in vertices:
                dag.insert(v)
            for v in vertices:
                if v.round < 2:
                    continue
                for anchor in dag.vertices_at(v.round - 2).values():
                    parents = [(v.round - 1, s) for s in parent_sources(v)]
                    want = sum(naive_path(dag, parent, anchor.id) for parent in parents)
                    assert anchor_votes(dag, v, anchor.id) == want
                    counts.add((want, len(parents)))
        # Both full and partial support occur, so the equality is not vacuous.
        assert any(want < total for want, total in counts)
        assert any(want == total for want, total in counts)


class TestOrderAnchors:
    def test_direct_anchor_with_empty_walk(self, committee4):
        dag = full_dag(committee4, 4)
        state = fresh_state(committee4)
        tr = tracer0()
        committed = try_committing(state, dag, dag.get((4, 0)), tr)
        assert committed == 2
        assert state.last_ordered_round == 2
        assert committed_anchors(tr) == [(2, 1, True)]

    def test_back_chain_through_reachable_anchors(self, committee4):
        dag = full_dag(committee4, 8)
        state = fresh_state(committee4)
        tr = tracer0()
        assert try_committing(state, dag, dag.get((8, 0)), tr) == 6
        # oldest first: 2 and 4 indirectly, 6 directly
        assert committed_anchors(tr) == [(2, 1, False), (4, 2, False), (6, 3, True)]
        assert state.last_ordered_round == 6

    def test_missing_intermediate_anchor_is_skipped(self, committee4):
        # leader(4) = 2 never produced a round-4 vertex
        dag = full_dag(committee4, 8, absent={(4, 2)})
        state = fresh_state(committee4)
        tr = tracer0()
        assert try_committing(state, dag, dag.get((8, 0)), tr) == 6
        assert committed_anchors(tr) == [(2, 1, False), (6, 3, True)]

    def test_second_certifier_of_a_decided_round_is_a_no_op(self, committee4):
        dag = full_dag(committee4, 8)
        state = fresh_state(committee4)
        tr = tracer0()
        assert try_committing(state, dag, dag.get((8, 0)), tr) == 6
        log_before = commit_log(tr.records)
        records_before = len(tr.records)
        # (8, 1) also certifies the round-6 anchor, which is already ordered
        assert try_committing(state, dag, dag.get((8, 1)), tr) is None
        assert commit_log(tr.records) == log_before
        assert len(tr.records) == records_before


class TestOrderHistory:
    def test_first_anchor_orders_genesis_then_itself(self, committee4):
        dag = full_dag(committee4, 4)
        state = fresh_state(committee4)
        tr = tracer0()
        try_committing(state, dag, dag.get((4, 0)), tr)
        log = commit_log(tr.records)
        ordered = [vid for vid, _ in log]
        # (round, source) ascending: all genesis, all round-1, then the anchor
        assert ordered[:4] == [(0, s) for s in range(4)]
        assert ordered[4:8] == [(1, s) for s in range(4)]
        assert ordered[8] == (2, 1)
        assert {r for _, r in log} == {2}

    def test_histories_partition_without_duplicates(self, committee4):
        dag = full_dag(committee4, 8)
        state = fresh_state(committee4)
        tr = tracer0()
        try_committing(state, dag, dag.get((8, 0)), tr)
        # No vertex is ordered twice: the histories the anchors record
        # concatenate to the log without repeats, oldest anchor first.
        log = commit_log(tr.records)
        seq = [vid for vid, _ in log]
        assert len(set(seq)) == len(seq)
        anchor_rounds = [r for _, r in log]
        assert anchor_rounds == sorted(anchor_rounds)
        assert {r for _, r in log} == {2, 4, 6}
        assert state.ordered_sources == source_masks(seq)

    def test_atomic_history(self, committee4):
        dag = full_dag(committee4, 8)
        state = fresh_state(committee4)
        tr = tracer0()
        try_committing(state, dag, dag.get((8, 0)), tr)
        position = {vid: i for i, vid in enumerate(ordered_sequence(tr.records))}
        for vid in position:
            for s in parent_sources(dag.get(vid)):
                assert position[(vid[0] - 1, s)] < position[vid]

    def test_switch_orders_trigger_history_first(self, committee4):
        dag = full_dag(committee4, 4)
        state = fresh_state(committee4, span=2)
        tr = tracer0()
        assert try_committing(state, dag, dag.get((4, 0)), tr) == 2
        # scores over [0, 2): every validator voted for leader(0), full tie,
        # so the fixed rule demotes 3 and promotes 0
        assert state.book.epoch_count == 2
        assert state.book.active.epoch == 1
        assert state.book.active.initial_round == 4
        assert state.book.active.slots == (0, 1, 2, 0)
        switch = [r for r in tr.records if r["kind"] == "schedule-switched"]
        assert switch == [
            {
                "at": 0,
                "kind": "schedule-switched",
                "epoch": 1,
                "initialRound": 4,
                "slots": [0, 1, 2, 0],
                "scores": {"0": 1, "1": 1, "2": 1, "3": 1},
            }
        ]
        # the trigger anchor's history was ordered before the switch
        assert state.last_ordered_round == 2


class TestUpdateSchedule:
    def test_faultless_switch_is_exactly_the_tie_swap(self, committee4):
        dag = full_dag(committee4, 4)
        state = fresh_state(committee4, span=2)
        schedule, _ = update_schedule(state, dag, dag.get((2, 1)))
        assert schedule.epoch == 1
        assert schedule.initial_round == 4
        assert schedule.slots == (0, 1, 2, 0)

    def test_crashed_validator_loses_all_slots(self, committee4):
        absent = {(r, 3) for r in range(9)}
        dag = full_dag(committee4, 8, absent=absent)
        # leader(6) = 2 is alive and triggers; crashed 3 scored nothing
        state = fresh_state(committee4, slots=(0, 1, 3, 2), span=6)
        schedule, scores = update_schedule(state, dag, dag.get((6, 2)))
        assert scores == {0: 2, 1: 2, 2: 2, 3: 0}
        assert select_swap_sets(committee4, scores, state.exclusion_fraction)[0] == [3]
        assert 3 not in schedule.slots
        assert schedule.slots == (0, 1, 0, 2)

    def test_premature_switch_rejected(self, committee4):
        dag = full_dag(committee4, 4)
        state = fresh_state(committee4, span=10)
        assert update_schedule(state, dag, dag.get((2, 1))) is None
        # Round-robin never switches.
        state = fresh_state(committee4, span=None)
        assert update_schedule(state, dag, dag.get((2, 1))) is None


class TestRetroRecheck:
    def build_crashed_leader_dag(self, committee4):
        # validator 3 never produces vertices; under the genesis schedule it
        # leads round 10, so that anchor round cannot commit in epoch 0
        absent = {(r, 3) for r in range(13)}
        slots = (0, 1, 2, 3, 2, 3, 0, 1)  # leader(10) = slots[5] = 3
        dag = full_dag(committee4, 12, absent=absent)
        state = fresh_state(committee4, slots=slots)
        return dag, state

    def test_new_leader_commits_after_switch(self, committee4):
        dag, state = self.build_crashed_leader_dag(committee4)
        tr = tracer0()
        # drive ordinary commits up to round 8
        for r in (4, 6, 8, 10):
            v = dag.get((r, 0))
            try_committing(state, dag, v, tr)
        assert state.last_ordered_round == 8
        # a switch arrives: epoch 1 hands round 10 to validator 1
        state.book.append(Schedule(epoch=1, initial_round=10, slots=(1, 2, 0, 1)))
        before = len(committed_anchors(tr))
        retro_recheck(state, dag, tr)
        assert committed_anchors(tr)[before] == (10, 1, True)

    def test_no_leader_change_recheck_is_empty(self, committee4):
        dag = full_dag(committee4, 6)
        state = fresh_state(committee4)
        tr = tracer0()
        try_committing(state, dag, dag.get((6, 0)), tr)
        state.book.append(Schedule(epoch=1, initial_round=6, slots=(3, 0, 1, 2)))
        # same leaders for every buffered round: slots shifted so that
        # leader(6) = 3 matches the old schedule's assignment
        before = len(committed_anchors(tr))
        retro_recheck(state, dag, tr)
        assert committed_anchors(tr)[before:] == []

    def test_consecutive_rounds_returned_ascending(self, committee4):
        dag, state = self.build_crashed_leader_dag(committee4)
        tr = tracer0()
        for r in (4, 6, 8):
            try_committing(state, dag, dag.get((r, 0)), tr)
        # leader(6) is the crashed validator, so only anchors 2 and 4 landed
        assert state.last_ordered_round == 4
        state.book.append(Schedule(epoch=1, initial_round=10, slots=(1, 2, 0, 1)))
        # round 8 (still under the old schedule) and round 10 (new leader)
        # both become committable; ascending order required
        before = len(committed_anchors(tr))
        retro_recheck(state, dag, tr)
        assert [r for r, _, _ in committed_anchors(tr)[before:]] == [8, 10]


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_shuffled_delivery_matches_canonical(self, seed):
        committee = new_committee([1, 1, 1, 1])
        rng = random.Random(seed)
        vertices = random_dag_vertices(rng, committee, 10)
        canonical, _, canonical_tr = replay(committee, vertices, range(len(vertices)), seed, switch_span=4)
        order = list(range(len(vertices)))
        rng.shuffle(order)
        shuffled, _, shuffled_tr = replay(committee, vertices, order, seed, switch_span=4)
        assert commit_log(canonical_tr.records) == commit_log(shuffled_tr.records)
        assert [s.slots for s in canonical.book.schedules] == [s.slots for s in shuffled.book.schedules]
        assert [s.initial_round for s in canonical.book.schedules] == [
            s.initial_round for s in shuffled.book.schedules
        ]
