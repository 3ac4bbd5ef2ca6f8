"""Run metrics, computed purely from trace records.

A vertex carries only its id and its parents' sources; its transaction
count is recorded once, as ``txCount`` of its ``vertex-created`` record.
Latency is measured at the creator's node: from the vertex's creation tick to
the first ``anchor-committed`` record of that node that orders it, once per
transaction. Throughput counts distinct transactions ordered by any honest
node over the whole run duration.
"""

from __future__ import annotations

from typing import Any, NamedTuple

Records = dict[int, list[dict[str, Any]]]


class Metrics(NamedTuple):
    latency_p50: float | None
    latency_p95: float | None
    latency_avg: float | None
    throughput: float
    distinct_txs: int
    skipped_anchor_rounds: int
    epoch_switch_lag_max: int
    horizon: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "latencyP50": self.latency_p50,
            "latencyP95": self.latency_p95,
            "latencyAvg": self.latency_avg,
            "throughput": self.throughput,
            "distinctTxs": self.distinct_txs,
            "skippedAnchorRounds": self.skipped_anchor_rounds,
            "epochSwitchLagMax": self.epoch_switch_lag_max,
            "horizon": self.horizon,
        }


def honest_nodes(manifest: dict[str, Any]) -> list[int]:
    crashed = {entry[0] for entry in manifest["config"]["faultPlan"]}
    return [v for v in range(len(manifest["config"]["stakes"])) if v not in crashed]


def committed_anchor_rounds(records_by_node: Records, honest: list[int]) -> set[int]:
    """Anchor rounds some honest node committed, directly or by back-chaining."""
    return {
        rec["round"]
        for node in honest
        for rec in records_by_node.get(node, [])
        if rec["kind"] == "anchor-committed"
    }


def _nearest_rank(sorted_samples: list[int], q: float) -> float:
    idx = max(0, int(q * len(sorted_samples) + 0.999999) - 1)
    return float(sorted_samples[min(idx, len(sorted_samples) - 1)])


def compute_metrics(records_by_node: Records, manifest: dict[str, Any]) -> Metrics:
    # One pass over each node's records. Honest nodes' first orderings of
    # their own vertices wait for every node's creations before they become
    # latency samples; each id is its creator's, so one map holds them all.
    honest = set(honest_nodes(manifest))
    horizon = 0
    created: dict[tuple[int, int], tuple[int, int]] = {}  # id -> (at, txCount)
    first_order: dict[tuple[int, int], int] = {}  # id -> its creator's first ordering tick
    ordered_ids: set[tuple[int, int]] = set()
    committed_rounds: set[int] = set()
    switch_times: dict[int, list[int]] = {}
    for node, records in records_by_node.items():
        is_honest = node in honest
        for rec in records:
            at, kind = rec["at"], rec["kind"]
            horizon = at if at > horizon else horizon
            if kind == "vertex-delivered":
                continue
            if kind == "vertex-created":
                created[rec["id"]] = (at, rec["txCount"])
            elif is_honest and kind == "anchor-committed":
                committed_rounds.add(rec["round"])
                for vid in rec["ordered"]:
                    ordered_ids.add(vid)
                    if vid[1] == node and vid not in first_order:
                        first_order[vid] = at
            elif is_honest and kind == "schedule-switched":
                switch_times.setdefault(rec["epoch"], []).append(at)

    samples: list[int] = []
    for vid, at in first_order.items():
        created_at, tx_count = created[vid]
        samples.extend([at - created_at] * tx_count)
    distinct_txs = sum(created[vid][1] for vid in ordered_ids if vid in created)
    throughput = distinct_txs / horizon if horizon > 0 else 0.0

    samples.sort()
    if samples:
        p50 = _nearest_rank(samples, 0.50)
        p95 = _nearest_rank(samples, 0.95)
        avg = sum(samples) / len(samples)
    else:
        p50 = p95 = avg = None

    skipped = 0
    if committed_rounds:
        top = max(committed_rounds)
        skipped = sum(1 for r in range(2, top + 1, 2) if r not in committed_rounds)

    lag_max = 0
    for epoch, times in switch_times.items():
        if len(times) == len(honest):
            lag_max = max(lag_max, max(times) - min(times))

    return Metrics(
        latency_p50=p50,
        latency_p95=p95,
        latency_avg=avg,
        throughput=throughput,
        distinct_txs=distinct_txs,
        skipped_anchor_rounds=skipped,
        epoch_switch_lag_max=lag_max,
        horizon=horizon,
    )
