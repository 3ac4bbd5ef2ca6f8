#!/usr/bin/env python3
"""Throughput and latency under the maximum tolerable number of crashes.

For each seed, runs both modes with f validators crashed from the start and
reports the degradation relative to that mode's own faultless baseline.
Static rotation keeps electing dead leaders and pays the timeout every
cycle; the reputation schedule swaps them out after the first epoch.
"""

import argparse
import statistics
import sys

from repdag.cli import _at_least
from repdag.config import ConfigInvalid, parse_config
from repdag.harness import run_in_memory


def _fmt(value: float | None, spec: str) -> str:
    """``value`` in ``spec``, or ``-`` when there is none."""
    return "-" if value is None else format(value, spec)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=_at_least(1), default=10)
    ap.add_argument("--crashes", type=_at_least(0), default=None, help="default: the fault bound f")
    ap.add_argument("--rounds", type=_at_least(1), default=400)
    ap.add_argument("--seeds", type=_at_least(1), default=5)
    args = ap.parse_args()

    f = (args.n - 1) // 3
    crashes = f if args.crashes is None else args.crashes
    plan = [[args.n - 1 - i, 0] for i in range(crashes)]
    base = {
        "stakes": [1] * args.n,
        "stop": {"maxRound": args.rounds},
        "Delta": 1,
        "leaderTimeout": 6,
    }
    try:
        # Each mode's (faultless, faulty) config pair per seed.
        pairs = {
            mode: [
                (
                    parse_config({**base, "mode": mode, "seed": seed}),
                    parse_config({**base, "mode": mode, "seed": seed, "faultPlan": plan}),
                )
                for seed in range(args.seeds)
            ]
            for mode in ("hammerhead", "round-robin")
        }
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    print(f"n={args.n}, {crashes} crashes at t=0, {args.rounds} rounds")
    print(f"{'mode':>12} {'seed':>5} {'tput':>8} {'vs faultless':>13} {'latency':>8}")
    ratios = {mode: [] for mode in pairs}
    for mode, configs in pairs.items():
        for seed, (clean_cfg, faulty_cfg) in enumerate(configs):
            # Only the metrics are kept: a finished run is freed before the next starts.
            clean = run_in_memory(clean_cfg)[0]
            faulty = run_in_memory(faulty_cfg)[0]
            # A run too short to commit has no throughput to compare against.
            ratio = faulty.throughput / clean.throughput if clean.throughput else None
            if ratio is not None:
                ratios[mode].append(ratio)
            print(
                f"{mode:>12} {seed:>5} {faulty.throughput:>8.3f} {_fmt(ratio, '.1%'):>12} "
                f"{_fmt(faulty.latency_avg, '.2f'):>8}"
            )
    for mode, values in ratios.items():
        mean = statistics.fmean(values) if values else None
        print(f"{mode}: mean retained throughput {_fmt(mean, '.1%')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
