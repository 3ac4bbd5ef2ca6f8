"""Leader schedules and reputation scoring.

A schedule maps anchor rounds to leaders through a cyclic slot vector, so one
schedule covers an unbounded round range until replaced. Epoch 0 is stake
proportional (largest-remainder rounding) in a seed-determined order. Later
epochs are produced by swapping the slots of the lowest scorers to the
highest scorers.
"""

from __future__ import annotations

import random
import warnings
from bisect import bisect_right

from .committee import Committee, ValidatorId
from .dag import DagState, Vertex, causal_history
from .frozen import Frozen


class BadLength(ValueError):
    pass


class NotAnchorRound(ValueError):
    pass


class UncoveredRound(ValueError):
    pass


class Schedule(Frozen):
    """One epoch's round-to-leader mapping.

    ``slots`` is indexed by anchor-round offset from ``initial_round`` and
    wraps around, so the schedule stays defined until a successor with a
    higher ``initial_round`` takes over.
    """

    __slots__ = ("epoch", "initial_round", "slots")

    def __init__(self, epoch: int, initial_round: int, slots: tuple[ValidatorId, ...]):
        self._assign(epoch, initial_round, slots)

    def leader_for(self, round: int) -> ValidatorId:
        if round % 2 != 0:
            raise NotAnchorRound(f"round {round} is odd; leaders exist at even rounds only")
        if round < self.initial_round:
            raise UncoveredRound(f"round {round} precedes schedule epoch {self.epoch}")
        return self.slots[((round - self.initial_round) // 2) % len(self.slots)]


class ScheduleBook:
    """Ordered schedules with strictly increasing initial rounds.

    Schedule k governs rounds [S_k.initial_round, S_{k+1}.initial_round); the
    last entry is open-ended and is the active schedule.
    """

    def __init__(self, first: Schedule):
        if first.epoch != 0 or first.initial_round != 0:
            raise ValueError("the first schedule must be epoch 0 starting at round 0")
        self.schedules: list[Schedule] = [first]

    @property
    def active(self) -> Schedule:
        return self.schedules[-1]

    @property
    def epoch_count(self) -> int:
        return len(self.schedules)

    def append(self, schedule: Schedule) -> None:
        if schedule.epoch != self.active.epoch + 1:
            raise ValueError("epoch indices must be consecutive")
        if schedule.initial_round <= self.active.initial_round:
            raise ValueError("initial rounds must strictly increase")
        self.schedules.append(schedule)

    def covering(self, round: int) -> Schedule:
        """The schedule governing ``round``: the last one starting at or before it."""
        if round < 0:
            raise UncoveredRound(f"negative round {round}")
        schedules = self.schedules
        if round >= schedules[-1].initial_round:
            return schedules[-1]
        # The first schedule starts at round 0, so the index is never -1.
        return schedules[bisect_right(schedules, round, key=lambda s: s.initial_round) - 1]

    def leader_for(self, round: int) -> ValidatorId:
        return self.covering(round).leader_for(round)


def get_anchor(dag: DagState, book: ScheduleBook, round: int) -> Vertex | None:
    """The leader's vertex at an anchor round, or None if not (yet) in the dag."""
    leader = book.leader_for(round)
    return dag.get((round, leader))


def initial_schedule(committee: Committee, seed: int, length: int) -> Schedule:
    """Epoch-0 schedule: stake-proportional slot counts, seed-shuffled order.

    Counts come from largest-remainder rounding of ``length * stake / total``;
    remainder ties go to the lower validator id. Lengths below the committee
    size leave some validators without slots, which is legal but usually
    unintended, hence the warning.
    """
    if length <= 0:
        raise BadLength(f"slot vector length must be positive, got {length}")
    if length < committee.n:
        warnings.warn(
            f"slot vector length {length} is below committee size {committee.n}; "
            "some validators will hold no slots",
            stacklevel=2,
        )
    total = committee.total_stake
    quotas = [(v, length * committee.stake(v) / total) for v in committee.members]
    counts = {v: int(q) for v, q in quotas}
    leftover = length - sum(counts.values())
    remainders = sorted(quotas, key=lambda vq: (-(vq[1] - int(vq[1])), vq[0]))
    for v, _ in remainders[:leftover]:
        counts[v] += 1
    slots = [v for v in committee.members for _ in range(counts[v])]
    random.Random(seed).shuffle(slots)
    return Schedule(epoch=0, initial_round=0, slots=tuple(slots))


def compute_scores(
    dag: DagState,
    book: ScheduleBook,
    from_round: int,
    to_round_exclusive: int,
) -> dict[ValidatorId, int]:
    """Per-validator vote counts over even rounds in [from_round, to_round_exclusive).

    ``to_round_exclusive`` is the round of the anchor that triggered the
    schedule change; only votes inside that anchor's causal history count, so
    every node that commits the anchor computes identical scores no matter
    what else its local dag holds. A validator earns one point per round e
    where its vertex in that history at round e+1 has the bit of round e's
    leader in its parent mask.
    """
    if from_round > to_round_exclusive:
        raise ValueError("empty-or-forward window required")
    scores = {v: 0 for v in dag.committee.members}
    if from_round >= to_round_exclusive:
        return scores
    trigger = get_anchor(dag, book, to_round_exclusive)
    if trigger is None:
        return scores
    # Row k holds the history's vertices at round to_round_exclusive - k.
    history = causal_history(dag, trigger.id, min_round=from_round)
    for e in range(from_round + from_round % 2, to_round_exclusive, 2):
        leader_vertex = get_anchor(dag, book, e)
        if leader_vertex is None:
            continue
        for voter in history[to_round_exclusive - e - 1]:
            if voter.mask & (1 << leader_vertex.source):
                scores[voter.source] += 1
    return scores


def _excluded_stake_cap(committee: Committee, exclusion_fraction: float) -> int:
    # Never exclude more stake than the fault bound allows, whatever the
    # configured fraction says.
    fault_cap = (committee.total_stake - 1) // 3
    return min(int(exclusion_fraction * committee.total_stake), fault_cap)


def select_swap_sets(
    committee: Committee,
    scores: dict[ValidatorId, int],
    exclusion_fraction: float,
) -> tuple[list[ValidatorId], list[ValidatorId]]:
    """Lowest scorers to demote and an equal number of top scorers to promote.

    Demotion grows from the worst scorer upward and stops before the demoted
    stake would exceed the exclusion cap. Ties are fixed rules: among equal
    scores the higher id is demoted first and the lower id promoted first,
    which keeps the two sets disjoint even when every score is equal.
    """
    cap = _excluded_stake_cap(committee, exclusion_fraction)
    demote_order = sorted(committee.members, key=lambda v: (scores[v], -v))
    demoted: list[ValidatorId] = []
    stake_out = 0
    for v in demote_order:
        if stake_out + committee.stake(v) > cap:
            break
        demoted.append(v)
        stake_out += committee.stake(v)
    # Promotion pool must stay disjoint; shrink the demotion set if the
    # committee is too small to supply distinct replacements.
    while len(demoted) > committee.n - len(demoted):
        demoted.pop()
    demoted_set = set(demoted)
    promote_order = sorted(
        (v for v in committee.members if v not in demoted_set),
        key=lambda v: (-scores[v], v),
    )
    promoted = promote_order[: len(demoted)]
    return demoted, promoted


def build_next_schedule(
    prev: Schedule,
    scores: dict[ValidatorId, int],
    committee: Committee,
    exclusion_fraction: float,
    initial_round: int,
) -> Schedule:
    """Swap the slots of the demoted validators to the promoted ones; the
    successor of ``prev`` governs from ``initial_round`` on.

    Slots are scanned in order; each slot held by a demoted validator is
    reassigned round-robin across the promoted set. Demoted validators that
    hold no slot cause no replacement. With fewer than four validators the
    demotion set is empty and the slot vector is returned unchanged.
    """
    demoted, promoted = select_swap_sets(committee, scores, exclusion_fraction)
    demoted_set = set(demoted)
    new_slots = list(prev.slots)
    if promoted:
        k = 0
        for i, holder in enumerate(prev.slots):
            if holder in demoted_set:
                new_slots[i] = promoted[k % len(promoted)]
                k += 1
    return Schedule(epoch=prev.epoch + 1, initial_round=initial_round, slots=tuple(new_slots))
