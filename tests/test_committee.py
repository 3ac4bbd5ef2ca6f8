import pytest
from hypothesis import given
from hypothesis import strategies as st

from repdag.committee import EmptyCommittee, ZeroStake, new_committee


def test_smallest_bft_committee():
    c = new_committee([1, 1, 1, 1])
    assert (c.n, c.f) == (4, 1)
    assert c.quorum_threshold == 3
    assert c.commit_threshold == 2


def test_ten_equal_validators():
    c = new_committee([1] * 10)
    assert (c.n, c.f) == (10, 3)


def test_unequal_stake_accepted():
    c = new_committee([3, 1, 1, 1, 1, 1, 1])
    assert (c.n, c.f) == (7, 2)
    assert c.total_stake == 9
    assert c.stake(0) == 3


def test_empty_committee_rejected():
    with pytest.raises(EmptyCommittee):
        new_committee([])


def test_zero_stake_rejected():
    with pytest.raises(ZeroStake):
        new_committee([1, 0, 1, 1])


def test_ids_follow_list_position():
    c = new_committee([5, 2, 9])
    assert c.members == (0, 1, 2)
    assert [c.stake(v) for v in c.members] == [5, 2, 9]


def test_derived_constants_are_set_once():
    c = new_committee([2, 1, 1, 1])
    assert c.members is c.members
    assert (c.quorum_threshold, c.commit_threshold, c.total_stake) == (3, 2, 5)
    with pytest.raises(AttributeError):
        c.members = (0,)


@given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=40))
def test_fault_bound_formula(stakes):
    c = new_committee(stakes)
    assert c.f == (c.n - 1) // 3
    assert 3 * c.f + 1 <= c.n
    assert c.quorum_threshold + c.commit_threshold == c.n + 1
