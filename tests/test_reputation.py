import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdag.committee import new_committee
from repdag.dag import DagState
from repdag.reputation import (
    BadLength,
    Schedule,
    ScheduleBook,
    UncoveredRound,
    build_next_schedule,
    compute_scores,
    initial_schedule,
    select_swap_sets,
)

from .conftest import full_dag, random_dag_vertices
from .oracles import brute_scores, brute_swap


def book_with(slots):
    return ScheduleBook(Schedule(epoch=0, initial_round=0, slots=tuple(slots)))


def swap(prev, points, committee):
    """The successor schedule at the default exclusion fraction, starting two
    rounds after ``prev``, with the demoted and promoted sets it swapped."""
    demoted, promoted = select_swap_sets(committee, points, 0.33)
    successor = build_next_schedule(prev, points, committee, 0.33, prev.initial_round + 2)
    return successor, demoted, promoted


class TestScheduleBookCovering:
    def test_matches_a_linear_scan(self):
        rng = random.Random(3)
        book = book_with([0, 1, 2, 3])
        start = 0
        for epoch in range(1, 64):
            start += rng.choice([2, 4, 6, 12])
            book.append(Schedule(epoch=epoch, initial_round=start, slots=(epoch % 4, 0, 1, 2)))
        for r in range(start + 20):
            want = [s for s in book.schedules if s.initial_round <= r][-1]
            assert book.covering(r) is want
        assert book.covering(start - 1) is book.schedules[-2]

    def test_negative_round_is_uncovered(self):
        with pytest.raises(UncoveredRound):
            book_with([0, 1, 2, 3]).covering(-2)


def test_a_schedule_is_an_immutable_value():
    s = Schedule(1, 10, (0, 1, 2))
    assert s == Schedule(epoch=1, initial_round=10, slots=(0, 1, 2)) != Schedule(1, 12, (0, 1, 2))
    for field in ("epoch", "initial_round", "slots"):
        with pytest.raises(AttributeError):
            setattr(s, field, 0)


class TestInitialSchedule:
    def test_equal_stakes_one_slot_each(self, committee4):
        s = initial_schedule(committee4, seed=0, length=4)
        assert sorted(s.slots) == [0, 1, 2, 3]
        assert s.epoch == 0 and s.initial_round == 0

    def test_largest_remainder_unequal_stakes(self):
        committee = new_committee([2, 1, 1])
        s = initial_schedule(committee, seed=5, length=4)
        counts = {v: list(s.slots).count(v) for v in committee.members}
        assert counts == {0: 2, 1: 1, 2: 1}

    def test_same_seed_same_slots(self):
        committee = new_committee([2, 1, 1])
        assert initial_schedule(committee, 9, 4).slots == initial_schedule(committee, 9, 4).slots

    def test_different_seeds_usually_differ(self, committee4):
        slot_orders = {initial_schedule(committee4, seed, 4).slots for seed in range(8)}
        assert len(slot_orders) > 1

    def test_zero_length_rejected(self, committee4):
        with pytest.raises(BadLength):
            initial_schedule(committee4, 0, 0)

    def test_short_vector_warns(self, committee4):
        with pytest.warns(UserWarning):
            initial_schedule(committee4, 0, 2)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=999),
    )
    def test_slot_count_conserved(self, stakes, length, seed):
        committee = new_committee(stakes)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = initial_schedule(committee, seed, length)
        assert len(s.slots) == length
        assert all(v in committee.members for v in s.slots)


class TestComputeScores:
    def test_everyone_votes_every_leader(self, committee4):
        dag = full_dag(committee4, 4)
        scores = compute_scores(dag, book_with([0, 1, 2, 3]), 0, 4)
        assert scores == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_crashed_validator_scores_zero(self, committee4):
        absent = {(r, 3) for r in range(5)}
        dag = full_dag(committee4, 4, absent=absent)
        scores = compute_scores(dag, book_with([0, 1, 2, 3]), 0, 4)
        assert scores[3] == 0
        assert all(scores[v] > 0 for v in (0, 1, 2))

    def test_empty_window_all_zero(self, committee4):
        dag = full_dag(committee4, 4)
        scores = compute_scores(dag, book_with([0, 1, 2, 3]), 2, 2)
        assert set(scores.values()) == {0}

    def test_missing_trigger_anchor_scores_zero(self, committee4):
        dag = full_dag(committee4, 4, absent={(4, 2)})
        scores = compute_scores(dag, book_with([0, 1, 2, 3]), 0, 4)  # leader(4) = 2, absent
        assert set(scores.values()) == {0}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_brute_force(self, seed):
        committee = new_committee([1, 1, 1, 1])
        rng = random.Random(seed)
        vertices = random_dag_vertices(rng, committee, 8)
        dag = DagState(committee)
        for v in vertices:
            dag.insert(v)
        slots = list(committee.members)
        rng.shuffle(slots)
        book = book_with(slots)
        top = len(dag.by_round) - 1
        top -= top % 2
        for to_round in range(2, top + 1, 2):
            got = compute_scores(dag, book, 0, to_round)
            want = brute_scores(dag, book, committee, 0, to_round)
            assert got == want


class TestSwap:
    def test_single_low_scorer_swapped(self, committee4):
        prev = Schedule(0, 0, (0, 1, 2, 3))
        schedule, demoted, promoted = swap(prev, {0: 5, 1: 5, 2: 5, 3: 0}, committee4)
        assert demoted == [3]
        assert promoted == [0]
        assert schedule.slots == (0, 1, 2, 0)
        assert (schedule.epoch, schedule.initial_round) == (1, 2)

    def test_all_equal_scores_still_swap(self, committee4):
        # Fixed tie rule: the highest id is demoted, the lowest promoted.
        prev = Schedule(0, 0, (0, 1, 2, 3))
        schedule, demoted, promoted = swap(prev, {0: 2, 1: 2, 2: 2, 3: 2}, committee4)
        assert demoted == [3]
        assert promoted == [0]
        assert schedule.slots == (0, 1, 2, 0)

    def test_demoted_without_slot_changes_nothing(self, committee4):
        prev = Schedule(1, 10, (0, 1, 2, 0))  # validator 3 already swapped out
        schedule, demoted, _ = swap(prev, {0: 4, 1: 4, 2: 4, 3: 0}, committee4)
        assert demoted == [3]
        assert schedule.slots == prev.slots
        assert sorted(schedule.slots) == sorted(prev.slots)

    def test_multi_slot_validator_fully_reassigned(self, committee4):
        prev = Schedule(0, 0, (3, 1, 3, 2))
        schedule, _, _ = swap(prev, {0: 9, 1: 7, 2: 6, 3: 0}, committee4)
        assert schedule.slots == (0, 1, 0, 2)
        assert 3 not in schedule.slots

    def test_small_committee_no_swap(self):
        committee = new_committee([1, 1, 1])
        prev = Schedule(0, 0, (0, 1, 2))
        schedule, demoted, _ = swap(prev, {0: 1, 1: 1, 2: 0}, committee)
        assert demoted == []
        assert schedule.slots == prev.slots

    def test_stake_cap_respected(self):
        committee = new_committee([3, 1, 1, 1, 1, 1, 1])  # total 9, cap 2
        points = {v: v for v in committee.members}
        points[0] = 9  # keep the heavy validator out of the demotion zone
        demoted, promoted = select_swap_sets(committee, points, 0.33)
        assert demoted == [1, 2]  # a third light validator would blow the cap
        assert len(promoted) == 2

    def test_heavy_worst_scorer_blocks_demotion(self):
        committee = new_committee([3, 1, 1, 1, 1, 1, 1])
        points = {v: 5 for v in committee.members}
        points[0] = 0  # worst scorer is too heavy to demote
        demoted, promoted = select_swap_sets(committee, points, 0.33)
        assert demoted == [] and promoted == []

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=4, max_size=10),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_brute_force_swap(self, stakes, seed):
        committee = new_committee(stakes)
        rng = random.Random(seed)
        points = {v: rng.randint(0, 6) for v in committee.members}
        slots = [rng.choice(committee.members) for _ in range(committee.n)]
        prev = Schedule(0, 0, tuple(slots))
        schedule, demoted, promoted = swap(prev, points, committee)
        want_slots, want_b, want_g = brute_swap(slots, points, committee)
        assert list(schedule.slots) == want_slots
        assert demoted == want_b
        assert promoted == want_g
        # conservation: slot count unchanged, every slot held by a member
        assert len(schedule.slots) == len(slots)
        assert set(schedule.slots) <= set(committee.members)
        # demoted and promoted sets never overlap
        assert not set(demoted) & set(promoted)
