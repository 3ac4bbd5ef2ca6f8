"""Property checkers over completed run traces.

Each checker is read-only, reports a verdict rather than raising, and is
deliberately independent of the protocol implementation: it trusts nothing
but the persisted records.

The three delivery checkers (rb-validity, rb-agreement, delivery-bound) read
one honest node's records at a time. Besides that node's deliveries they
hold one run-wide table of vertex ids (the created ones, or the union of the
delivered ones), never one per node: delivery records grow with n^2 per
round, a single node's with n. The rb checkers build ``missing`` only when
they fail.

Every checker keys on a record's vertex id as it stands: a ``(round, source)``
tuple shared by every record that names the vertex, in memory and once
parsed. ``traces.parse`` refuses an id that is not a pair of integers, so a
bad id is a bad trace, never a vertex nobody created.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .metrics import Records, committed_anchor_rounds, honest_nodes


class TotalOrderVerdict(NamedTuple):
    ok: bool
    node_a: int | None = None
    node_b: int | None = None
    divergence_index: int | None = None

    def __str__(self) -> str:
        if self.ok:
            return "total-order: ok"
        return (
            f"total-order: violation between node {self.node_a} and node {self.node_b} "
            f"at index {self.divergence_index}"
        )


class ScheduleAgreementVerdict(NamedTuple):
    status: str  # ok | inconclusive | violation
    epoch: int | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __str__(self) -> str:
        suffix = f" (epoch {self.epoch}: {self.detail})" if self.epoch is not None else ""
        return f"schedule-agreement: {self.status}{suffix}"


class LeaderUtilizationReport(NamedTuple):
    ok: bool
    skipped: int
    bound: int
    crashed: int
    window: tuple[int, int]

    @property
    def anchor_rounds(self) -> int:
        """The anchor rounds in the window: at most this many can be skipped."""
        start, end = self.window
        return len(range(start, end + 1, 2))

    def __str__(self) -> str:
        text = (
            f"leader-utilization: {'ok' if self.ok else 'violation'} "
            f"(skipped {self.skipped} of anchor rounds {self.window[0]}..{self.window[1]}, "
            f"bound {self.bound}, crashed {self.crashed})"
        )
        if self.bound >= self.anchor_rounds:
            text += (
                f"; the bound is not below the window's {self.anchor_rounds} anchor rounds,"
                " so this check cannot fail"
            )
        return text


class DeliveryVerdict(NamedTuple):
    """``missing`` lists the (node, vertex) deliveries that checker ``name``
    found absent (rb-validity, rb-agreement) or late (delivery-bound)."""

    name: str
    ok: bool
    missing: tuple[tuple[int, tuple[int, int]], ...] = ()  # (node, vertex id)

    def __str__(self) -> str:
        if self.ok:
            return f"{self.name}: ok"
        return f"{self.name}: violation at {len(self.missing)} (node, vertex) deliveries"


def ordered_sequence(records: list[dict[str, Any]]) -> list[tuple[int, int]]:
    """A node's ordered vertex ids, in order: the ``(round, source)`` tuples
    its ``anchor-committed`` records share with every other record."""
    return [vid for r in records if r["kind"] == "anchor-committed" for vid in r["ordered"]]


def check_total_order(records_by_node: Records) -> TotalOrderVerdict:
    """Every node's ordered sequence is a prefix of the longest one.

    That holds exactly when every pair of sequences agrees on its common
    prefix. Crashed nodes simply have shorter logs; the prefix rule covers
    them, so all nodes participate.
    """
    sequences = {node: ordered_sequence(records) for node, records in sorted(records_by_node.items())}
    longest = max(sequences, key=lambda node: len(sequences[node]), default=None)
    reference = sequences.get(longest, [])
    for node, seq in sequences.items():
        if seq != reference[: len(seq)]:
            idx = next(i for i, (a, b) in enumerate(zip(seq, reference)) if a != b)
            pair = sorted((node, longest))
            return TotalOrderVerdict(ok=False, node_a=pair[0], node_b=pair[1], divergence_index=idx)
    return TotalOrderVerdict(ok=True)


def check_schedule_agreement(records_by_node: Records, manifest: dict[str, Any]) -> ScheduleAgreementVerdict:
    """Same epoch means identical schedule, and nobody is left behind.

    A mismatch in (initialRound, slots) for a shared epoch is a violation. An
    epoch that some live honest node never reached is inconclusive, not a
    failure: the run may simply have been truncated first.
    """
    honest = honest_nodes(manifest)
    per_epoch: dict[int, dict[int, tuple[int, tuple[int, ...]]]] = {}
    for node, records in records_by_node.items():
        for rec in records:
            if rec["kind"] != "schedule-switched":
                continue
            per_epoch.setdefault(rec["epoch"], {})[node] = (
                rec["initialRound"],
                tuple(rec["slots"]),
            )
    for epoch in sorted(per_epoch):
        variants = set(per_epoch[epoch].values())
        if len(variants) > 1:
            return ScheduleAgreementVerdict(
                status="violation", epoch=epoch, detail="conflicting schedules recorded"
            )
    for epoch in sorted(per_epoch):
        holders = set(per_epoch[epoch]) & set(honest)
        if holders and any(node not in per_epoch[epoch] for node in honest):
            return ScheduleAgreementVerdict(
                status="inconclusive", epoch=epoch, detail="not all honest nodes reached this epoch"
            )
    return ScheduleAgreementVerdict(status="ok")


def _pre_gst_round(records_by_node: Records, honest: list[int], gst: int) -> int:
    top = 0
    for node in honest:
        for rec in records_by_node.get(node, []):
            if rec["kind"] == "vertex-created" and rec["at"] <= gst:
                top = max(top, rec["id"][0])
    return top


def check_leader_utilization(
    records_by_node: Records,
    manifest: dict[str, Any],
    warmup: int | None = None,
) -> LeaderUtilizationReport:
    """Skipped anchor rounds after GST stay within (T + 1) * crashed + warmup.

    An anchor round counts as skipped when no honest node ever committed that
    round's anchor, directly or through back-chaining. The window starts at
    the first anchor round past any pre-GST progress and ends at the highest
    committed anchor round, so truncation at the run horizon is not counted
    against the protocol. The default warmup constant, ceil(T / 2) + 2 anchor
    rounds, covers the epoch that was already running when the crashes hit.
    """
    cfg = manifest["config"]
    honest = honest_nodes(manifest)
    crashed = len(cfg["faultPlan"])
    span = cfg["T"]
    if warmup is None:
        warmup = (span + 1) // 2 + 2
    committed = committed_anchor_rounds(records_by_node, honest)
    start = _pre_gst_round(records_by_node, honest, cfg["GST"]) + 1
    start = start + (start % 2)  # first even round after pre-GST progress
    start = max(start, 2)
    end = max(committed) if committed else start - 2
    skipped = sum(1 for r in range(start, end + 1, 2) if r not in committed)
    bound = (span + 1) * crashed + warmup
    return LeaderUtilizationReport(
        ok=skipped <= bound,
        skipped=skipped,
        bound=bound,
        crashed=crashed,
        window=(start, end),
    )


def _created_by(records_by_node: Records) -> dict[tuple[int, int], int]:
    """Each created vertex's creation tick."""
    return {
        rec["id"]: rec["at"]
        for records in records_by_node.values()
        for rec in records
        if rec["kind"] == "vertex-created"
    }


def _delivered_ids(records: list[dict[str, Any]]) -> set[tuple[int, int]]:
    """The vertex ids a node delivered."""
    return {rec["id"] for rec in records if rec["kind"] == "vertex-delivered"}


def _first_deliveries(records: list[dict[str, Any]]) -> dict[tuple[int, int], int]:
    """A node's first-delivery tick per vertex id, in delivery order."""
    ticks: dict[tuple[int, int], int] = {}
    for rec in records:
        if rec["kind"] == "vertex-delivered":
            ticks.setdefault(rec["id"], rec["at"])
    return ticks


def check_rb_validity(records_by_node: Records, manifest: dict[str, Any]) -> DeliveryVerdict:
    """Every vertex a never-crashed node broadcast reaches every honest node."""
    honest = honest_nodes(manifest)
    sources = set(honest)
    created = dict.fromkeys(vid for vid in _created_by(records_by_node) if vid[1] in sources)
    lacking = {}
    for node in honest:
        # The difference drops the node's set before the next one is built.
        if absent := created.keys() - _delivered_ids(records_by_node.get(node, [])):
            lacking[node] = absent
    if not lacking:
        return DeliveryVerdict("rb-validity", True)
    missing = [(node, vid) for vid in created for node in lacking if vid in lacking[node]]
    return DeliveryVerdict("rb-validity", False, tuple(missing))


def check_rb_agreement(records_by_node: Records, manifest: dict[str, Any]) -> DeliveryVerdict:
    """A vertex delivered by one honest node is delivered by all of them."""
    honest = honest_nodes(manifest)
    union: set[tuple[int, int]] = set()
    counts = {}
    for node in honest:
        delivered = _delivered_ids(records_by_node.get(node, []))
        counts[node] = len(delivered)
        union |= delivered
        del delivered  # before the next node's set is built
    # Each node's ids lie in the union, so a node holds all of it exactly
    # when it holds as many ids; only a failing node is read a second time.
    lacking = {
        node: union - _delivered_ids(records_by_node.get(node, []))
        for node in honest
        if counts[node] < len(union)
    }
    if not lacking:
        return DeliveryVerdict("rb-agreement", True)
    missing = [(node, vid) for vid in sorted(union) for node in lacking if vid in lacking[node]]
    return DeliveryVerdict("rb-agreement", False, tuple(missing))


def check_delivery_bound(records_by_node: Records, manifest: dict[str, Any]) -> DeliveryVerdict:
    """First delivery at each honest node respects Delta + max(GST, send time).

    A delivery of a vertex that no trace created has no send time to bound
    it, so it is a violation too.
    """
    cfg = manifest["config"]
    delta, gst = cfg["Delta"], cfg["GST"]
    # Each created vertex's deadline, computed once rather than per delivery.
    deadline = {vid: delta + max(gst, sent) for vid, sent in _created_by(records_by_node).items()}
    # One node's first deliveries at a time (see the module docstring):
    # every node's at once could also tip the cyclic GC into a full pass
    # over all the records it was given.
    late = [
        (node, vid)
        for node in honest_nodes(manifest)
        for vid, at in _first_deliveries(records_by_node.get(node, [])).items()
        if (limit := deadline.get(vid)) is None or at > limit
    ]
    return DeliveryVerdict("delivery-bound", not late, tuple(late))
