"""Per-layer timing of repdag, taken from outside the program.

``install`` wraps the public functions of each module of ``src/repdag`` and
replaces every reference to them, both on their class and in each module that
imported them by name, so calls made through any of those names are timed.
Each wrapper is a span: its self time is its duration minus the time its child
spans cover. Boundaries called 10^4 to 10^6 times per run are aggregated per
span name in memory; the rarer ones are also kept as individual spans
(name, start, end, parent) for the benchmark to write out.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable


class Recorder:
    """Span and counter sink for one traced process."""

    def __init__(self) -> None:
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.total: defaultdict[str, float] = defaultdict(float)
        self.own: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.peaks: defaultdict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, str | None]] = []
        # Time covered by child spans, one slot per open span plus the root.
        self._covered = [0.0]
        # Names of the open spans that are kept individually.
        self._open: list[str] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        hot: bool = False,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(*args, **kwargs)`` runs ahead of the call and its result is
        passed to ``after(result, state, *args, **kwargs)``. Both run outside
        the span, and the parent span does not count them as its own time.
        """
        calls, total, own, covered = self.calls, self.total, self.own, self._covered
        spans, opened = self.spans, self._open
        clock = time.perf_counter

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            entered = clock()
            state = before(*args, **kwargs) if before is not None else None
            covered.append(0.0)
            if not hot:
                opened.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                inner = covered.pop()
                calls[name] += 1
                total[name] += end - start
                own[name] += end - start - inner
                if not hot:
                    opened.pop()
                    spans.append((name, start, end, opened[-1] if opened else None))
                if after is None:
                    covered[-1] += end - entered
            if after is not None:
                after(result, state, *args, **kwargs)
                covered[-1] += clock() - entered
            return result

        wrapped.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapped

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks[key]:
            self.peaks[key] = value


def _modules() -> list[Any]:
    import repdag
    from repdag import checks, cli, commit, config, dag, harness, metrics, node, reputation, simnet, traces

    return [repdag, checks, cli, commit, config, dag, harness, metrics, node, reputation, simnet, traces]


def _replace_function(module: Any, attr: str, wrapped: Callable) -> None:
    """Point every module-level name bound to ``module.attr`` at ``wrapped``."""
    original = getattr(module, attr)
    for mod in _modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def install(rec: Recorder, layers: str = "all") -> None:
    """Wrap the layer boundaries; ``layers="checks"`` wraps the checkers only."""
    from repdag import checks, cli, commit, config, dag, harness, metrics, node, reputation, simnet, traces

    def function(module: Any, attr: str, name: str, **kw: Any) -> None:
        _replace_function(module, attr, rec.wrap(name, getattr(module, attr), **kw))

    def method(cls: type, attr: str, name: str, **kw: Any) -> None:
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), **kw))

    for attr, name in (
        ("check_total_order", "checks.total_order"),
        ("check_schedule_agreement", "checks.schedule_agreement"),
        ("check_leader_utilization", "checks.leader_utilization"),
        ("check_rb_validity", "checks.rb_validity"),
        ("check_rb_agreement", "checks.rb_agreement"),
        ("check_delivery_bound", "checks.delivery_bound"),
    ):
        function(checks, attr, name)
    if layers == "checks":
        return

    counts = rec.counts

    def after_step(ev: Any, _state: Any, sim: Any) -> None:
        if ev is None:
            return
        if ev.kind == simnet.DELIVER:
            counts["simnet.deliveries"] += 1
            if sim.nodes[ev.target].crashed:
                counts["simnet.deliveries_to_crashed"] += 1
        elif ev.kind == simnet.TIMER:
            counts["simnet.timers"] += 1
        rec.peak("simnet.queue_peak", len(sim._queue))

    def before_deliver(self: Any, v: Any, now: int) -> bool:
        return not self.crashed and v.id not in self._seen

    def after_deliver(_effects: Any, first: bool, self: Any, v: Any, now: int) -> None:
        if first:
            counts["node.first_deliveries"] += 1
        rec.peak("node.pending_peak", len(self.pending))

    def after_insert(outcome: Any, _state: Any, *args: Any) -> None:
        counts[f"dag.insert.{outcome.name.lower()}"] += 1

    def after_try(anchor_round: Any, _state: Any, *args: Any) -> None:
        if anchor_round is not None:
            counts["commit.direct_commits"] += 1

    def after_emit(_none: Any, _state: Any, tracer: Any, kind: str, **payload: Any) -> None:
        counts[f"traces.kind.{kind}"] += 1

    def after_run(result: Any, _state: Any, *args: Any) -> None:
        # Stores only grow during a run, so their sizes at the end are peaks.
        nodes = result.nodes
        rec.peak("dag.vertices_peak", max(sum(map(len, n.dag.by_round.values())) for n in nodes))
        counts["commit.discarded_anchors"] += sum(len(n.commit.discarded_anchors) for n in nodes)
        counts["reputation.epochs"] += max(n.commit.book.epoch_count for n in nodes) - 1
        counts["traces.records"] += sum(len(t.records) for t in result.tracers)

    method(simnet.Simulation, "step", "simnet.step", hot=True, after=after_step)
    method(simnet.Simulation, "broadcast", "simnet.broadcast", hot=True)
    function(simnet, "run", "simnet.run", after=after_run)
    method(node.Node, "on_deliver", "node.on_deliver", hot=True, before=before_deliver, after=after_deliver)
    method(node.Node, "on_timer", "node.on_timer", hot=True)
    method(dag.DagState, "insert", "dag.insert", hot=True, after=after_insert)
    method(dag.DagState, "even_vertices_from", "dag.even_vertices_from")
    method(dag.AnchorReach, "__init__", "dag.anchor_reach", hot=True)
    function(dag, "path", "dag.path", hot=True)
    function(dag, "causal_history", "dag.causal_history")
    function(commit, "try_committing", "commit.try_committing", hot=True, after=after_try)
    function(commit, "order_history", "commit.order_history")
    function(commit, "retro_recheck", "commit.retro_recheck")
    method(reputation.ScheduleBook, "leader_for", "reputation.leader_for", hot=True)
    function(reputation, "get_anchor", "reputation.get_anchor", hot=True)
    function(reputation, "compute_scores", "reputation.compute_scores")
    function(reputation, "build_next_schedule", "reputation.build_next_schedule")
    method(traces.Tracer, "emit", "traces.emit", hot=True, after=after_emit)
    function(traces, "serialize", "traces.serialize")
    function(traces, "parse", "traces.parse")
    function(harness, "write_run", "harness.write_run")
    function(harness, "load_run", "harness.load_run")
    function(harness, "run_scenario", "harness.run_scenario")
    function(harness, "run_in_memory", "harness.run_in_memory")
    function(harness, "compare", "harness.compare")
    function(metrics, "compute_metrics", "metrics.compute_metrics")
    function(config, "parse_config", "config.parse")
    function(cli, "main", "cli.main")


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


# Per-layer metric name -> (unit, better). The order is the report order.
PER_LAYER: dict[str, tuple[str, str]] = {
    "simnet.step.calls": ("count", "lower"),
    "simnet.step.self_s": ("s", "lower"),
    "simnet.broadcast.calls": ("count", "lower"),
    "simnet.broadcast.self_s": ("s", "lower"),
    "simnet.deliveries": ("count", "lower"),
    "simnet.deliveries_to_crashed": ("count", "lower"),
    "simnet.timers": ("count", "lower"),
    "simnet.queue_peak": ("count", "lower"),
    "simnet.run.self_s": ("s", "lower"),
    "node.on_deliver.calls": ("count", "lower"),
    "node.on_deliver.self_s": ("s", "lower"),
    "node.useful_delivery_ratio": ("ratio", "higher"),
    "node.pending_peak": ("count", "lower"),
    "node.on_timer.calls": ("count", "lower"),
    "node.leader_timeouts": ("count", "lower"),
    "dag.insert.calls": ("count", "lower"),
    "dag.insert.self_s": ("s", "lower"),
    "dag.insert.missing_parents": ("count", "lower"),
    "dag.anchor_reach.calls": ("count", "lower"),
    "dag.anchor_reach.s": ("s", "lower"),
    "dag.path.calls": ("count", "lower"),
    "dag.path.s": ("s", "lower"),
    "dag.causal_history.s": ("s", "lower"),
    "dag.even_vertices_from.s": ("s", "lower"),
    "dag.vertices_peak": ("count", "lower"),
    "commit.try_committing.calls": ("count", "lower"),
    "commit.try_committing.self_s": ("s", "lower"),
    "commit.direct_commit_ratio": ("ratio", "higher"),
    "commit.order_history.s": ("s", "lower"),
    "commit.retro_recheck.calls": ("count", "lower"),
    "commit.retro_recheck.s": ("s", "lower"),
    "commit.stale_anchors": ("count", "lower"),
    "commit.discarded_anchors": ("count", "lower"),
    "reputation.leader_for.calls": ("count", "lower"),
    "reputation.leader_for.s": ("s", "lower"),
    "reputation.get_anchor.calls": ("count", "lower"),
    "reputation.compute_scores.calls": ("count", "lower"),
    "reputation.compute_scores.s": ("s", "lower"),
    "reputation.build_next_schedule.s": ("s", "lower"),
    "reputation.epochs": ("count", "higher"),
    "traces.emit.calls": ("count", "lower"),
    "traces.emit.self_s": ("s", "lower"),
    "traces.records": ("count", "lower"),
    "traces.serialize.s": ("s", "lower"),
    "traces.parse.s": ("s", "lower"),
    "harness.write_run.s": ("s", "lower"),
    "harness.load_run.s": ("s", "lower"),
    "harness.run_in_memory.s": ("s", "lower"),
    "harness.compare.s": ("s", "lower"),
    "metrics.compute_metrics.s": ("s", "lower"),
    "checks.total_order.s": ("s", "lower"),
    "checks.schedule_agreement.s": ("s", "lower"),
    "checks.leader_utilization.s": ("s", "lower"),
    "checks.rb_validity.s": ("s", "lower"),
    "checks.rb_agreement.s": ("s", "lower"),
    "checks.delivery_bound.s": ("s", "lower"),
    "config.parse.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "tracing.overhead_s": ("s", "lower"),
}


def report(rec: Recorder) -> dict[str, float]:
    """Every per-layer metric this process measured, by metric name.

    A layer that did not run reports 0. ``tracing.overhead_s`` is filled in by
    the benchmark, which compares a traced run with an untraced one.
    """
    out: dict[str, float] = {}
    for key in PER_LAYER:
        span, _, stat = key.rpartition(".")
        if stat == "calls":
            out[key] = rec.calls.get(span, 0)
        elif stat == "self_s":
            out[key] = rec.own.get(span, 0.0)
        elif stat == "s":
            out[key] = rec.total.get(span, 0.0)
    out.update(
        {
            "simnet.deliveries": rec.counts["simnet.deliveries"],
            "simnet.deliveries_to_crashed": rec.counts["simnet.deliveries_to_crashed"],
            "simnet.timers": rec.counts["simnet.timers"],
            "simnet.queue_peak": rec.peaks["simnet.queue_peak"],
            "node.useful_delivery_ratio": _ratio(
                rec.counts["node.first_deliveries"], rec.calls.get("node.on_deliver", 0)
            ),
            "node.pending_peak": rec.peaks["node.pending_peak"],
            "node.leader_timeouts": rec.counts["traces.kind.leader-timeout"],
            "dag.insert.missing_parents": rec.counts["dag.insert.missing_parents"],
            "dag.vertices_peak": rec.peaks["dag.vertices_peak"],
            "commit.direct_commit_ratio": _ratio(
                rec.counts["commit.direct_commits"], rec.calls.get("commit.try_committing", 0)
            ),
            "commit.stale_anchors": rec.counts["traces.kind.stale-anchor"],
            "commit.discarded_anchors": rec.counts["commit.discarded_anchors"],
            "reputation.epochs": rec.counts["reputation.epochs"],
            "traces.records": rec.counts["traces.records"],
            "tracing.overhead_s": 0.0,
        }
    )
    return out
