"""Scenario execution, trace persistence, and paired comparisons."""

from __future__ import annotations

import json
import math
from itertools import product
from pathlib import Path
from typing import Any, NamedTuple

from . import __version__
from .committee import ValidatorId
from .config import ConfigInvalid, SimConfig, parse_config
from .metrics import Metrics, Records, compute_metrics
from .simnet import RunResult, gc_paused, run
from .traces import TraceInvalid, VertexIds, decode_json, parse, serialize

MANIFEST_NAME = "manifest.json"


def write_run(result: RunResult, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Refuse, before writing, traces this run would not overwrite: load_run would reject the directory.
    traces = {f"node-{tracer.node:02d}.jsonl": tracer for tracer in result.tracers}
    stale = sorted(path.name for path in out.glob("node-*.jsonl") if path.name not in traces)
    if stale:
        raise TraceInvalid(f"{out}: holds traces of another run: {stale}")
    for name, tracer in traces.items():
        (out / name).write_text(serialize(tracer.node, tracer.records))
    manifest = {
        "config": result.config.to_json_dict(),
        "seed": result.config.seed,
        "codeVersion": __version__,
        "endTime": result.end_time,
        "eventsExecuted": result.events_executed,
        "roundsReached": {str(n.me): n.current_round for n in result.nodes},
    }
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def load_run(run_dir: str | Path) -> tuple[dict[str, Any], Records]:
    """Read a persisted run: its manifest and one trace per validator.

    Raises ``TraceInvalid`` unless the manifest holds a valid config and
    every validator it lists has exactly one trace, named after it and with
    its node in the header, so a checker never reports on traces it was not
    given. The returned manifest's config is the parsed one, with every
    default filled in. Every node's records name a vertex by the same tuple.
    Each trace is parsed from the open file, one batch of lines at a time, so
    at its peak this holds the records read so far plus one batch.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_NAME
    try:
        manifest = decode_json(manifest_path.read_text())
    except TraceInvalid as exc:
        raise TraceInvalid(f"{manifest_path}: {exc}") from None
    config = manifest.get("config") if isinstance(manifest, dict) else None
    if not isinstance(config, dict):
        raise TraceInvalid(f"{manifest_path}: no config object")
    try:
        cfg = parse_config(config)
    except ConfigInvalid as exc:
        raise TraceInvalid(f"{manifest_path}: config {exc}") from None
    manifest["config"] = cfg.to_json_dict()
    expected = {f"node-{v:02d}.jsonl": v for v in range(cfg.n)}
    found = {path.name for path in run_dir.glob("node-*.jsonl")}
    if found != expected.keys():
        raise TraceInvalid(
            f"{run_dir}: expected one trace per validator 0..{cfg.n - 1}; "
            f"missing {sorted(expected.keys() - found)}, unexpected {sorted(found - expected.keys())}"
        )
    records: Records = {}
    ids = VertexIds()
    # Parsed records hold no cycles: see ``simnet.gc_paused``.
    with gc_paused():
        for name, validator in expected.items():
            try:
                with (run_dir / name).open() as lines:
                    node, recs = parse(lines, ids)
            except (TraceInvalid, json.JSONDecodeError) as exc:
                raise TraceInvalid(f"{run_dir / name}: {exc}") from None
            if node != validator:
                raise TraceInvalid(f"{run_dir / name}: header names node {node}")
            records[node] = recs
    return manifest, records


def run_scenario(cfg: SimConfig, out_dir: str | Path) -> tuple[Metrics, Path]:
    """``run_in_memory``, then persist its traces and write ``metrics.json``.

    The traces are never read back here: ``repdag check`` reads them for its
    checkers, and the benchmark and ``tests/test_metrics.py`` recompute the
    metrics from them, which come out the same.
    """
    with gc_paused():
        metrics, result = run_in_memory(cfg)
        path = write_run(result, out_dir)
        (path / "metrics.json").write_text(json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n")
    return metrics, path


class _RoundReached(NamedTuple):
    """What ``write_run`` reads of a node: its id and the round it reached."""

    me: ValidatorId
    current_round: int


def run_in_memory(cfg: SimConfig) -> tuple[Metrics, RunResult]:
    """Run one scenario and compute its metrics, without touching disk.

    Each node is replaced by the round it reached once the simulation ends,
    so its DAG, pending buffer and commit state are freed before the metrics
    allocate. The collector stays paused over the metrics too, so a caller
    that drops the result frees its records by reference counting before any
    collection walks them.
    """
    with gc_paused():
        result = run(cfg)
        result = result._replace(nodes=[_RoundReached(n.me, n.current_round) for n in result.nodes])
        metrics = compute_metrics(result.records_by_node, {"config": cfg.to_json_dict()})
    return metrics, result


class Comparison(NamedTuple):
    seeds: tuple[int, ...]
    metrics_a: tuple[Metrics, ...]
    metrics_b: tuple[Metrics, ...]

    def mean(self, side: str, attr: str) -> float:
        values = [getattr(m, attr) for m in (self.metrics_a if side == "a" else self.metrics_b)]
        values = [v for v in values if v is not None]
        return math.fsum(values) / len(values) if values else float("nan")

    def to_rows(self) -> list[dict[str, Any]]:
        rows = []
        for seed, ma, mb in zip(self.seeds, self.metrics_a, self.metrics_b):
            rows.append(
                {
                    "seed": seed,
                    "throughputA": ma.throughput,
                    "throughputB": mb.throughput,
                    "latencyAvgA": ma.latency_avg,
                    "latencyAvgB": mb.latency_avg,
                    "latencyP95A": ma.latency_p95,
                    "latencyP95B": mb.latency_p95,
                    "skippedA": ma.skipped_anchor_rounds,
                    "skippedB": mb.skipped_anchor_rounds,
                }
            )
        return rows

    def summary(self) -> str:
        lines = [
            f"{'seed':>6} {'tput A':>10} {'tput B':>10} {'lat A':>8} {'lat B':>8} {'skip A':>7} {'skip B':>7}"
        ]
        for row in self.to_rows():
            lines.append(
                f"{row['seed']:>6} {row['throughputA']:>10.4f} {row['throughputB']:>10.4f} "
                f"{_fmt(row['latencyAvgA']):>8} {_fmt(row['latencyAvgB']):>8} "
                f"{row['skippedA']:>7} {row['skippedB']:>7}"
            )
        lines.append(
            f"  mean {self.mean('a', 'throughput'):>10.4f} {self.mean('b', 'throughput'):>10.4f} "
            f"{self.mean('a', 'latency_avg'):>8.2f} {self.mean('b', 'latency_avg'):>8.2f}"
        )
        return "\n".join(lines)


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def compare(cfg_a: SimConfig, cfg_b: SimConfig, seeds: list[int]) -> Comparison:
    """Paired runs of two configs over shared seeds."""
    metrics_a = []
    metrics_b = []
    for seed in seeds:
        metrics_a.append(run_in_memory(cfg_a.with_seed(seed))[0])
        metrics_b.append(run_in_memory(cfg_b.with_seed(seed))[0])
    return Comparison(seeds=tuple(seeds), metrics_a=tuple(metrics_a), metrics_b=tuple(metrics_b))


def sweep(
    base: SimConfig,
    sizes: list[int],
    fault_counts: list[int],
    spans: list[int],
    seeds: list[int],
) -> list[dict[str, Any]]:
    """Grid of runs over committee size, crash count, and epoch length."""
    rows = []
    for n, c, span, seed in product(sizes, fault_counts, spans, seeds):
        if c > (n - 1) // 3:
            continue
        # None re-derives the slot length and batch size from this n, and
        # parsing refuses a grid point no config file could hold.
        point = base.replace(
            stakes=(1,) * n,
            slot_length=None,
            batch_size=None,
            commits_per_epoch=span,
            fault_plan=tuple((n - 1 - i, base.gst) for i in range(c)),
            seed=seed,
        )
        cfg = parse_config(point.to_json_dict())
        metrics = run_in_memory(cfg)[0]
        rows.append({"n": n, "faults": c, "T": span, "seed": seed, "mode": cfg.mode, **metrics.to_dict()})
    return rows


def rows_to_csv(rows: list[dict[str, Any]]) -> str:
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"
