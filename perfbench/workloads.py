"""Benchmark workloads: scenario configs generated from the benchmark seed.

Every workload uses equal stakes. A ``scenario`` workload is one config that
``repdag run`` simulates and persists; the ``compare`` workload is a pair of
configs (reputation scheduling against static round-robin) that
``repdag compare`` runs over ``compare_seeds`` scenario seeds in memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "scenario" or "compare"
    rounds: int
    make: Callable[[int, int], list[dict[str, Any]]]  # (seed, rounds) -> configs
    compare_seeds: int = 0

    def configs(self, seed: int, rounds: int | None = None) -> list[dict[str, Any]]:
        return self.make(seed, self.rounds if rounds is None else rounds)


def _steady_n10(seed: int, rounds: int) -> list[dict[str, Any]]:
    return [
        {
            "stakes": [1] * 10,
            "Delta": 1,
            "leaderTimeout": 6,
            "T": 10,
            "batchSize": 20,
            "seed": seed,
            "stop": {"maxRound": rounds},
        }
    ]


def _wide_n31(seed: int, rounds: int) -> list[dict[str, Any]]:
    return [{"stakes": [1] * 31, "Delta": 1, "seed": seed, "stop": {"maxRound": rounds}}]


def _long_epochs_n4(seed: int, rounds: int) -> list[dict[str, Any]]:
    return [
        {
            "stakes": [1] * 4,
            "faultPlan": [[3, 0]],
            "T": 2,
            "GST": 40,
            "preGstPolicy": "random:6",
            "Delta": 2,
            "leaderTimeout": 8,
            "seed": seed,
            "stop": {"maxRound": rounds},
        }
    ]


def _compare_faults_n10(seed: int, rounds: int) -> list[dict[str, Any]]:
    # `repdag compare` pairs the two modes on scenario seeds 0..k-1 whatever
    # the config says, so the benchmark seed picks which validators crash.
    crashed = sorted(random.Random(seed).sample(range(10), 3))
    base = {
        "stakes": [1] * 10,
        "faultPlan": [[v, 0] for v in crashed],
        "GST": 40,
        "preGstPolicy": "random:8",
        "Delta": 3,
        "leaderTimeout": 12,
        "T": 10,
        "seed": seed,
        "stop": {"maxRound": rounds},
    }
    return [{**base, "mode": "hammerhead"}, {**base, "mode": "round-robin"}]


# Run lengths keep one action at about 2 to 6 seconds on a 2-core machine, so
# a run of the benchmark repeats it several times.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("steady-n10", "scenario", 200, _steady_n10),
        Workload("wide-n31", "scenario", 24, _wide_n31),
        Workload("long-epochs-n4", "scenario", 2000, _long_epochs_n4),
        Workload("compare-faults-n10", "compare", 200, _compare_faults_n10, compare_seeds=4),
    )
}
