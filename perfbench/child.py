"""One benchmark action in a fresh process.

Usage: python3 child.py SPEC_JSON SPAWN_TIME

``run.py`` writes the spec and passes the ``time.monotonic()`` reading taken
just before it started this process (the clock is system-wide on Linux). The
child runs the action the spec names, as a user would, and writes its
measurements to ``spec["result"]``:

- ``scenario``: ``repdag run``;
- ``check``: load the persisted run and run every checker, as
  ``repdag check`` would; with ``inspect`` set, also digest the traces and
  recompute the metrics from them, after the timed part;
- ``compare``: ``repdag compare`` with the spec's command line;
- ``verify``: the compare workload's verification of one scenario seed,
  simulating both configs in memory and checking each run's records.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    spawned = float(sys.argv[2])
    sys.path.insert(0, spec["src"])

    from repdag import harness, simnet

    rec = None
    if spec.get("trace"):
        import layers

        rec = layers.Recorder()
        layers.install(rec, spec["trace"])

    built: list[float] = []
    simulation_init = simnet.Simulation.__init__

    def stamped_init(self: Any, cfg: Any) -> None:
        simulation_init(self, cfg)
        if not built:
            built.append(time.monotonic())

    simnet.Simulation.__init__ = stamped_init  # type: ignore[method-assign]

    sim_s = [0.0]
    simulate = harness.run

    def timed_run(cfg: Any) -> Any:
        start = time.perf_counter()
        try:
            return simulate(cfg)
        finally:
            sim_s[0] += time.perf_counter() - start

    harness.run = timed_run

    action = {"scenario": _scenario, "check": _check, "compare": _compare, "verify": _verify}[spec["mode"]]
    out = action(spec, rec)
    out.setdefault("ended", time.monotonic())
    out.setdefault("rss_kb", _peak_rss_kb())
    out["spawned"] = spawned
    out["sim_built"] = built[0] if built else None
    out["sim_s"] = sim_s[0]
    Path(spec["result"]).write_text(json.dumps(out))


def _snapshot(rec: Any, result: dict[str, Any]) -> None:
    """Copy the per-layer figures into ``result``.

    Taken right after the measured action, so the untimed verification that
    follows stays out of them.
    """
    if rec is None:
        return
    import layers

    result["layers"] = layers.report(rec)
    result["counters"] = dict(rec.counts)
    result["spans"] = list(rec.spans)


def _scenario(spec: dict[str, Any], rec: Any) -> dict[str, Any]:
    from repdag import cli

    start = time.perf_counter()
    code = cli.main(spec["argv"])
    run_s = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"repdag run exited with {code}")
    result: dict[str, Any] = {"ended": time.monotonic(), "rss_kb": _peak_rss_kb(), "run_s": run_s}
    _snapshot(rec, result)
    return result


def _check(spec: dict[str, Any], rec: Any) -> dict[str, Any]:
    from repdag import harness
    from repdag.metrics import compute_metrics

    import verify

    start = time.perf_counter()
    manifest, records = harness.load_run(spec["out"])
    verdicts = verify.run_checkers(records, manifest)
    check_s = time.perf_counter() - start
    result: dict[str, Any] = {
        "ended": time.monotonic(),
        "rss_kb": _peak_rss_kb(),
        "check_s": check_s,
        "verdicts": verdicts,
    }
    _snapshot(rec, result)
    if not spec["inspect"]:
        return result

    out = Path(spec["out"])
    files = sorted(out.glob("node-*.jsonl"))
    stored = json.loads((out / "metrics.json").read_text())
    recomputed = compute_metrics(records, manifest).to_dict()
    result.update(
        digest=verify.digest(p.read_bytes() for p in files),
        trace_bytes=sum(p.stat().st_size for p in files),
        counts=verify.record_counts(records),
        metrics_match=stored == recomputed,
        outcomes=_outcomes(stored, verify.skipped_after_switch(records, manifest)),
    )
    return result


def _compare(spec: dict[str, Any], rec: Any) -> dict[str, Any]:
    from repdag import cli

    comparisons = []
    compare = cli.compare

    def keep(*args: Any, **kwargs: Any) -> Any:
        comparison = compare(*args, **kwargs)
        comparisons.append(comparison)
        return comparison

    cli.compare = keep
    start = time.perf_counter()
    code = cli.main(spec["argv"])
    run_s = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"repdag compare exited with {code}")
    result: dict[str, Any] = {"ended": time.monotonic(), "rss_kb": _peak_rss_kb(), "run_s": run_s}
    _snapshot(rec, result)
    (comparison,) = comparisons
    result["per_seed"] = [
        [ma.to_dict(), mb.to_dict()] for ma, mb in zip(comparison.metrics_a, comparison.metrics_b)
    ]
    return result


def _verify(spec: dict[str, Any], rec: Any) -> dict[str, Any]:
    from repdag import harness
    from repdag.config import load_config
    from repdag.traces import serialize

    import verify

    seed = spec["seed"]
    texts: list[bytes] = []
    verdicts: list[list[str]] = []
    counts: dict[str, int] = {}
    pair = []
    late_skips = 0
    check_s = 0.0
    for side, path in enumerate(spec["configs"]):
        cfg = load_config(path).with_seed(seed)
        metrics, run = harness.run_in_memory(cfg)
        records = run.records_by_node
        manifest = {"config": cfg.to_json_dict()}
        texts.extend(serialize(node, records[node]).encode() for node in sorted(records))
        for key, value in verify.record_counts(records).items():
            counts[key] = counts.get(key, 0) + value
        # Static rotation keeps electing crashed leaders, so its skipped
        # rounds grow with the run length; only the reputation side (a)
        # is held to the utilization bound.
        start = time.perf_counter()
        checked = verify.run_checkers(records, manifest, utilization=side == 0)
        check_s += time.perf_counter() - start
        verdicts.extend([f"seed {seed} {cfg.mode} {name}", status] for name, status in checked)
        pair.append(metrics.to_dict())
        if side == 0:
            late_skips = verify.skipped_after_switch(records, manifest)
        del run, records
    fewer = pair[0]["skippedAnchorRounds"] < pair[1]["skippedAnchorRounds"]
    verdicts.append([f"seed {seed} reputation-skips-fewer", verify.OK if fewer else "violation"])
    result: dict[str, Any] = {
        "check_s": check_s,
        "verdicts": verdicts,
        "pair": pair,
        "skipped_after_switch": late_skips,
        "digest": verify.digest(texts),
        "trace_bytes": sum(map(len, texts)),
        "counts": counts,
    }
    _snapshot(rec, result)
    return result


def _outcomes(metrics: dict[str, Any], late_skips: int) -> dict[str, float]:
    return {
        "latency_p50_ticks": metrics["latencyP50"],
        "latency_p95_ticks": metrics["latencyP95"],
        "throughput_tx_per_tick": metrics["throughput"],
        "skipped_anchor_rounds": metrics["skippedAnchorRounds"],
        "skipped_after_switch_plus1": late_skips + 1,
    }


if __name__ == "__main__":
    main()
