"""Command-line interface.

Exit codes: 0 on success, 1 when a property checker reports a violation,
2 on configuration or IO errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from .checks import (
    check_delivery_bound,
    check_leader_utilization,
    check_rb_agreement,
    check_rb_validity,
    check_schedule_agreement,
    check_total_order,
)
from .config import ConfigInvalid, load_config, parse_config
from .harness import compare, load_run, rows_to_csv, run_scenario, sweep
from .traces import TraceInvalid


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    metrics, path = run_scenario(cfg, args.out)
    print(f"run complete: traces in {path}")
    for key, value in metrics.to_dict().items():
        print(f"  {key}: {value}")
    return 0


# Each checker with the flag that selects it alone; the ones without a flag
# run only with --all or when no flag is given.
CHECKERS = (
    ("total_order", lambda records, manifest: check_total_order(records)),
    ("schedules", lambda records, manifest: check_schedule_agreement(records, manifest)),
    ("utilization", lambda records, manifest: check_leader_utilization(records, manifest)),
    (None, lambda records, manifest: check_rb_validity(records, manifest)),
    (None, lambda records, manifest: check_rb_agreement(records, manifest)),
    (None, lambda records, manifest: check_delivery_bound(records, manifest)),
)


def _cmd_check(args: argparse.Namespace) -> int:
    manifest, records = load_run(args.trace)
    wanted = [runner for flag, runner in CHECKERS if flag and getattr(args, flag)]
    if args.all or not wanted:
        wanted = [runner for _flag, runner in CHECKERS]
    try:
        verdicts = [runner(records, manifest) for runner in wanted]
    except (KeyError, TypeError, ValueError) as exc:
        # The parser checks record kinds, not payloads; a checker that trips
        # over a missing or mistyped field, or a vertex id that is not a
        # pair, read a bad trace. This also reports a checker's own KeyError,
        # TypeError or ValueError as a trace error.
        raise TraceInvalid(f"a record lacks a field or has one of the wrong type or shape: {exc!r}") from exc
    failed = False
    for verdict in verdicts:
        print(str(verdict))
        if not verdict.ok and getattr(verdict, "status", None) != "inconclusive":
            failed = True
    return 1 if failed else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg_a = load_config(args.a)
    cfg_b = load_config(args.b)
    comparison = compare(cfg_a, cfg_b, list(range(args.seeds)))
    print(comparison.summary())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.csv").write_text(rows_to_csv(comparison.to_rows()))
        print(f"wrote {out / 'comparison.csv'}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = load_config(args.config) if args.config else parse_config({"stakes": [1, 1, 1, 1]})
    rows = sweep(base, sizes=args.n, fault_counts=args.faults, spans=args.T, seeds=list(range(args.seeds)))
    csv_text = rows_to_csv(rows)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep.csv").write_text(csv_text)
        print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    else:
        print(csv_text, end="")
    return 0


def _at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type for a count: an unsigned integer of at least ``minimum``."""

    def count(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return int(text)

    return count


def _list_of(item: Callable[[str], int]) -> Callable[[str], list[int]]:
    """An argparse type for a comma-separated list of ``item`` values."""
    return lambda text: [item(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repdag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and persist traces")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="run property checkers over a trace directory")
    p_check.add_argument("--trace", required=True)
    p_check.add_argument("--all", action="store_true")
    p_check.add_argument("--total-order", action="store_true", dest="total_order")
    p_check.add_argument("--schedules", action="store_true")
    p_check.add_argument("--utilization", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_cmp = sub.add_parser("compare", help="paired runs of two configs over shared seeds")
    p_cmp.add_argument("--a", required=True)
    p_cmp.add_argument("--b", required=True)
    p_cmp.add_argument("--seeds", type=_at_least(1), default=5)
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="grid of runs over n, fault count, and epoch length")
    p_sweep.add_argument("--config", help="base config; defaults apply if omitted")
    p_sweep.add_argument("--n", type=_list_of(_at_least(1)), default="4,7,10")
    p_sweep.add_argument("--faults", type=_list_of(_at_least(0)), default="0,1")
    p_sweep.add_argument("--T", type=_list_of(_at_least(1)), default="10")
    p_sweep.add_argument("--seeds", type=_at_least(1), default=3)
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TraceInvalid as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
