"""Static committee description: validator identities, stakes, thresholds.

Validators are identified by their index in the stake list. That index order
is the deterministic tie-break order used throughout the protocol, so it must
be stable across runs given the same input.
"""

from __future__ import annotations

from .frozen import Frozen


ValidatorId = int


class EmptyCommittee(ValueError):
    pass


class ZeroStake(ValueError):
    pass


class Committee(Frozen):
    """Immutable committee of ``n`` validators tolerating ``f`` faults.

    ``f`` is always derived as ``floor((n - 1) / 3)`` so that ``3f + 1 <= n``
    holds by construction. Edge quorums count vertices (``n - f``), commits
    need ``f + 1`` votes; stake only enters slot allocation and the sizing of
    the swap sets at schedule changes. Every field but ``stakes`` is derived
    from it: ``quorum_threshold`` (round advancement, parent edges) and
    ``commit_threshold`` (direct anchor commits) among them.
    """

    __slots__ = ("stakes", "n", "f", "members", "quorum_threshold", "commit_threshold", "total_stake")

    def __init__(self, stakes: tuple[int, ...]):
        n, f = len(stakes), (len(stakes) - 1) // 3
        self._assign(stakes, n, f, tuple(range(n)), n - f, f + 1, sum(stakes))

    def stake(self, v: ValidatorId) -> int:
        return self.stakes[v]


def new_committee(stakes: list[int]) -> Committee:
    """Build a committee from per-validator stakes, ids assigned by position."""
    if not stakes:
        raise EmptyCommittee("committee needs at least one validator")
    for i, s in enumerate(stakes):
        if s <= 0:
            raise ZeroStake(f"validator {i} has non-positive stake {s}")
    return Committee(stakes=tuple(int(s) for s in stakes))
