#!/usr/bin/env python3
"""Faultless comparison of reputation scheduling against static rotation.

Runs paired seeds of both modes on an n-validator committee with no crashes
and prints per-seed throughput and latency. Expected outcome: parity in
throughput, latency equal or slightly better for the reputation mode.
"""

import argparse
import sys

from repdag.cli import _at_least
from repdag.config import ConfigInvalid, parse_config
from repdag.harness import compare


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=_at_least(1), default=10)
    ap.add_argument("--rounds", type=_at_least(1), default=240)
    ap.add_argument("--seeds", type=_at_least(1), default=10)
    args = ap.parse_args()

    base = {
        "stakes": [1] * args.n,
        "stop": {"maxRound": args.rounds},
        "Delta": 1,
        "leaderTimeout": 6,
    }
    try:
        hh = parse_config(base)
        rr = parse_config({**base, "mode": "round-robin"})
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    comparison = compare(hh, rr, list(range(args.seeds)))
    print("A = reputation scheduling, B = static rotation (faultless)")
    print(comparison.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
