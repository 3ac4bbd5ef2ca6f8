#!/usr/bin/env python3
"""Skipped anchor rounds as the horizon grows, with crashed validators.

Static rotation skips an anchor round every time a dead validator's slot
comes up, so skips grow linearly with the horizon. The reputation schedule
stops electing dead validators after one epoch, so skips stay flat.
"""

import argparse
import sys

from repdag.checks import check_leader_utilization
from repdag.cli import _at_least
from repdag.config import ConfigInvalid, parse_config
from repdag.simnet import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=_at_least(1), default=10)
    ap.add_argument("--crashes", type=_at_least(0), default=3)
    ap.add_argument("--seed", type=_at_least(0), default=0)
    args = ap.parse_args()

    plan = [[args.n - 1 - i, 0] for i in range(args.crashes)]
    base = {"stakes": [1] * args.n, "Delta": 1, "leaderTimeout": 6, "seed": args.seed, "faultPlan": plan}
    try:
        # Per horizon, the reputation config and the static one.
        rows = {
            rounds: [
                parse_config({**base, "mode": mode, "stop": {"maxRound": rounds}})
                for mode in ("hammerhead", "round-robin")
            ]
            for rounds in (60, 120, 240, 480)
        }
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    print(f"{'rounds':>7} {'reputation':>11} {'static':>7}   (skipped anchor rounds)")
    for rounds, configs in rows.items():
        row = []
        for cfg in configs:
            result = run(cfg)
            report = check_leader_utilization(result.records_by_node, {"config": cfg.to_json_dict()})
            row.append(report.skipped)
        print(f"{rounds:>7} {row[0]:>11} {row[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
