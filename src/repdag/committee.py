"""Static committee description: validator identities, stakes, thresholds.

Validators are identified by their index in the stake list. That index order
is the deterministic tie-break order used throughout the protocol, so it must
be stable across runs given the same input.
"""

from __future__ import annotations

from dataclasses import dataclass, field


ValidatorId = int


class EmptyCommittee(ValueError):
    pass


class ZeroStake(ValueError):
    pass


@dataclass(frozen=True)
class Committee:
    """Immutable committee of ``n`` validators tolerating ``f`` faults.

    ``f`` is always derived as ``floor((n - 1) / 3)`` so that ``3f + 1 <= n``
    holds by construction. Edge quorums count vertices (``n - f``), commits
    need ``f + 1`` votes; stake only enters slot allocation and the sizing of
    the swap sets at schedule changes.
    """

    stakes: tuple[int, ...]
    n: int = field(init=False)
    f: int = field(init=False)
    members: tuple[ValidatorId, ...] = field(init=False)
    # Vertex count required for round advancement and parent edges.
    quorum_threshold: int = field(init=False)
    # Votes required for a direct anchor commit.
    commit_threshold: int = field(init=False)
    total_stake: int = field(init=False)

    def __post_init__(self):
        n, f = len(self.stakes), (len(self.stakes) - 1) // 3
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "members", tuple(range(n)))
        object.__setattr__(self, "quorum_threshold", n - f)
        object.__setattr__(self, "commit_threshold", f + 1)
        object.__setattr__(self, "total_stake", sum(self.stakes))

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
