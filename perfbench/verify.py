"""Correctness gates over a run's trace records.

Imported by the child process once ``src`` is on the import path. The
checkers are looked up on ``repdag.checks`` at call time, so a traced run
times them through its wrappers.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

from repdag import checks
from repdag.metrics import honest_nodes

# Verdict statuses other than "ok" count as failed: the workloads are chosen
# so that every checker reaches a verdict.
OK = "ok"


def run_checkers(records: dict[int, list[dict[str, Any]]], manifest: dict[str, Any], utilization: bool = True) -> list[list[str]]:
    """Verdicts of all six checkers, behind a gate on trace completeness.

    The checkers read only the traces they are given, so a run missing a
    validator's trace could pass them vacuously. Unless there is exactly one
    trace per validator in the manifest, every checker is reported as
    ``untrusted``.
    """
    complete = sorted(records) == list(range(len(manifest["config"]["stakes"])))
    verdicts = [["traces-complete", OK if complete else "violation"]]
    runners = [
        ("total-order", lambda: checks.check_total_order(records)),
        ("schedule-agreement", lambda: checks.check_schedule_agreement(records, manifest)),
        ("leader-utilization", lambda: checks.check_leader_utilization(records, manifest)),
        ("rb-validity", lambda: checks.check_rb_validity(records, manifest)),
        ("rb-agreement", lambda: checks.check_rb_agreement(records, manifest)),
        ("delivery-bound", lambda: checks.check_delivery_bound(records, manifest)),
    ]
    for name, runner in runners:
        if name == "leader-utilization" and not utilization:
            continue
        if not complete:
            verdicts.append([name, "untrusted"])
            continue
        verdict = runner()
        verdicts.append([name, getattr(verdict, "status", OK if verdict.ok else "violation")])
    return verdicts


def record_counts(records: dict[int, list[dict[str, Any]]]) -> dict[str, int]:
    counts = {"records": 0, "vertex-created": 0, "vertex-delivered": 0, "schedule-switched": 0}
    for recs in records.values():
        counts["records"] += len(recs)
        for rec in recs:
            if rec["kind"] in counts:
                counts[rec["kind"]] += 1
    return counts


def skipped_after_switch(records: dict[int, list[dict[str, Any]]], manifest: dict[str, Any]) -> int:
    """Anchor rounds no honest node committed, from the first schedule switch on.

    Counted like ``metrics.compute_metrics``'s skipped anchor rounds, over
    the even rounds up to the highest committed anchor round, but only from
    the initial round of the first reputation schedule (round 2 when no
    schedule switched). Earlier skips come from the initial round-robin
    schedule electing crashed validators and vary with which validators
    crashed; later ones mean reputation scheduling still elects dead leaders.
    """
    committed: set[int] = set()
    first_switch = None
    for node in honest_nodes(manifest):
        for rec in records.get(node, []):
            if rec["kind"] == "anchor-committed":
                committed.add(rec["round"])
            elif rec["kind"] == "schedule-switched" and (first_switch is None or rec["initialRound"] < first_switch):
                first_switch = rec["initialRound"]
    if not committed:
        return 0
    start = 2 if first_switch is None else first_switch + first_switch % 2
    return sum(1 for r in range(start, max(committed) + 1, 2) if r not in committed)


def digest(texts: Iterable[bytes]) -> str:
    """sha256 over serialized node traces, in the order given."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text)
    return h.hexdigest()
