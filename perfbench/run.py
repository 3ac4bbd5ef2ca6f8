"""repdag benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repdag checkout; the simulator is imported from its
``src`` directory. Each user action runs in fresh child processes, one at a
time: ``repdag run`` and then each check of its persisted run in a process of
its own, or ``repdag compare``. With ``--trace 0`` the workload is repeated
for ``--seconds`` seconds with nothing wrapped but the top-level stamps, and
the last line of output is a JSON object with every end-to-end metric
(medians over the repetitions, timings scaled to a reference host speed; see
``PROBE_S``). With ``--trace 1`` one untraced and one traced action run, and
the JSON holds the per-layer metrics, the tracing overhead, and self-checks
of the traced counts against counts recomputed from the trace records.
Individual spans of the traced action go to ``.perfbench_out/``.

Every action is checked: all six property checkers pass on each run's
traces, ``metrics.json`` matches metrics recomputed from the traces, and
repeated runs of one seed give byte-identical traces. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MIN_ITERATIONS = 2
# Check processes per `repdag run` action; the first ends the action.
CHECKS = 2
BUDGET_S = 170.0
# Host speed probe. On a shared VM the same work runs up to 1.5x slower in
# some phases than in others, and a phase can outlast a run, so raw times of
# one workload spread by 0.1 to 0.3 (IQR/median) between runs. Every action
# is bracketed by a fixed pure-Python loop timed in this process, and its
# timings are scaled by PROBE_S over the probe's time: they read as seconds
# on a host where the probe takes PROBE_S (about its median on a 2-core VM).
# Program changes cannot move the probe, so a slower program still reads
# slower. The unscaled medians are printed too.
PROBE_S = 0.01
PROBE_LOOP = 50_000
PROBE_ROUNDS = 5

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "run_s": "s",
    "check_s": "s",
    "vertices_per_s": "1/s",
    "peak_rss_mb": "MB",
    "trace_mb": "MB",
    "latency_p50_ticks": "ticks",
    "latency_p95_ticks": "ticks",
    "throughput_tx_per_tick": "tx/tick",
    "skipped_after_switch_plus1": "rounds",
    "check_pass_ratio": "ratio",
}


class BenchError(Exception):
    pass


class Bench:
    """One workload at one seed, run as child processes in a work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path, rounds: int | None = None, compare_seeds: int | None = None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.configs = []
        for i, cfg in enumerate(workload.configs(seed, rounds)):
            path = work / f"config-{i}.json"
            path.write_text(json.dumps(cfg))
            self.configs.append(str(path))
        self.seeds = list(range(compare_seeds if compare_seeds is not None else workload.compare_seeds))
        self._children = 0

    @property
    def is_compare(self) -> bool:
        return self.workload.kind == "compare"

    def argv(self, out: Path) -> list[str]:
        if self.is_compare:
            a, b = self.configs
            return ["compare", "--a", a, "--b", b, "--seeds", str(len(self.seeds))]
        return ["run", "--config", self.configs[0], "--out", str(out)]

    def action(self, trace: str | None = None, checks: int = CHECKS) -> dict[str, Any]:
        """One user action and its measurements.

        On the compare workload, ``repdag compare``. Otherwise ``repdag run``,
        then ``checks`` processes that each load the persisted run and check
        it, as ``repdag check`` would; the action ends with the first of them.
        """
        if self.is_compare:
            return self.child("compare", trace)
        out = self.work / f"out-{self._children}"
        try:
            run = self.child("scenario", trace, out=out)
            done = [self.child("check", trace, out=out, inspect=i == 0) for i in range(checks)]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        first = done[0]
        result = {
            **first,
            **{key: run[key] for key in ("spawned", "sim_built", "sim_s", "run_s")},
            "rss_kb": max(run["rss_kb"], first["rss_kb"]),
            "check_samples": [c["check_s"] for c in done],
            "verdicts": [v for c in done for v in c["verdicts"]],
        }
        if trace:
            # A check process runs only load_run, parse and the checkers, so
            # the peaks and ratios of the simulation layers are 0 in it.
            result["layers"] = {name: run["layers"][name] + first["layers"][name] for name in run["layers"]}
            result["counters"] = run["counters"]
            result["spans"] = run["spans"] + first["spans"]
        return result

    def child(self, mode: str, trace: str | None = None, **spec_extra: Any) -> dict[str, Any]:
        """Run one child process and return its measurements.

        ``spec_extra`` goes into the spec as is: the output directory ``out``
        of a run and its checks, ``inspect`` for the check that digests the
        traces, and the scenario ``seed`` a verification pass checks.
        """
        self._children += 1
        k = self._children
        out = spec_extra.pop("out", self.work / f"run-{k}")
        spec = {
            "mode": mode,
            "src": str(SRC),
            "configs": self.configs,
            "argv": self.argv(out),
            "out": str(out),
            "trace": trace,
            "result": str(self.work / f"result-{k}.json"),
            **spec_extra,
        }
        spec_path = self.work / f"spec-{k}.json"
        spec_path.write_text(json.dumps(spec))
        remaining = BUDGET_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        with open(self.work / f"stderr-{k}.txt", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path), repr(spawned)],
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            try:
                code = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} action did not finish in time") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            tail = (self.work / f"stderr-{k}.txt").read_text(errors="replace")[-2000:]
            raise BenchError(f"{mode} action exited with {code}:\n{tail}")
        return json.loads(Path(spec["result"]).read_text())


def probe() -> float:
    """Median time of a fixed pure-Python loop: a reading of host speed."""
    times = []
    for _ in range(PROBE_ROUNDS):
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(PROBE_LOOP):
            table[i & 1023] = table.get(i & 1023, 0) + i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(run: Callable[[], dict[str, Any]]) -> dict[str, Any]:
    """``run()``'s result, with the ``scale`` that its timings take."""
    before = probe()
    result = run()
    result["probe_s"] = statistics.fmean((before, probe()))
    result["scale"] = PROBE_S / result["probe_s"]
    return result


def _wall(result: dict[str, Any]) -> float:
    return result["ended"] - result["spawned"]


def _setup(result: dict[str, Any]) -> float:
    return result["sim_built"] - result["spawned"]


def _failed_verdicts(verdicts: list[list[str]]) -> list[str]:
    return [f"{name}: {status}" for name, status in verdicts if status != "ok"]


def _describe(values: list[float]) -> str:
    text = f"n={len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", q1 {q1:.4g}, q3 {q3:.4g}"
    return text + f", samples {json.dumps([round(v, 4) for v in values])}"


def measure(bench: Bench, seconds: float) -> tuple[dict[str, float], int, dict[str, list[str]], list[str]]:
    """Untraced runs: end-to-end metrics, the number of actions, the problems
    of each failed action, and report lines."""
    iterations: list[dict[str, Any]] = []
    # The compare workload's verification, one pass per scenario seed. The
    # passes are interleaved with the timed actions so that the check_s
    # samples spread over the run, and their time does not count against it.
    pending = list(bench.seeds) if bench.is_compare else []
    parts: list[dict[str, Any]] = []
    start = time.monotonic()
    # Repeat while the next action would end mostly inside the window.
    while len(iterations) < MIN_ITERATIONS or time.monotonic() - start + _wall(iterations[-1]) / 2 < seconds:
        if iterations and time.monotonic() - bench.started + _wall(iterations[-1]) * 1.5 > BUDGET_S:
            break
        iterations.append(scaled(bench.action))
        if pending:
            began = time.monotonic()
            parts.append(_verification(bench, pending.pop(0)))
            start += time.monotonic() - began
    parts += [_verification(bench, seed) for seed in pending]
    verified = _merged(parts) if bench.is_compare else None

    verdicts: list[list[str]] = []
    issues: dict[str, list[str]] = {}
    first = iterations[0]
    for i, it in enumerate(iterations):
        found = []
        if bench.is_compare:
            if it["per_seed"] != verified["per_seed"]:
                found.append("compare metrics differ from the verification pass")
        else:
            verdicts += it["verdicts"]
            found += _failed_verdicts(it["verdicts"])
            if not it["metrics_match"]:
                found.append("metrics.json differs from metrics recomputed from the traces")
            if it["digest"] != first["digest"]:
                found.append(f"trace digest {it['digest']} differs from the first run's {first['digest']}")
            if it["outcomes"] != first["outcomes"]:
                found.append("protocol outcomes differ from the first run's")
        if found:
            issues[f"repetition {i}"] = found
    attempted = len(iterations)
    if verified is not None:
        attempted += 1
        verdicts += verified["verdicts"]
        found = _failed_verdicts(verified["verdicts"])
        if found:
            issues["verification"] = found

    if bench.is_compare:
        sides = [pair[0] for pair in verified["per_seed"]]
        outcomes = {
            "latency_p50_ticks": statistics.fmean(m["latencyP50"] for m in sides),
            "latency_p95_ticks": statistics.fmean(m["latencyP95"] for m in sides),
            "throughput_tx_per_tick": statistics.fmean(m["throughput"] for m in sides),
            "skipped_anchor_rounds": statistics.fmean(m["skippedAnchorRounds"] for m in sides),
            "skipped_after_switch_plus1": verified["skipped_after_switch"] + 1,
        }
        source, check_s = verified, [(part["check_s"], part["scale"]) for part in parts]
    else:
        outcomes = dict(first["outcomes"])
        source, check_s = first, [(t, it["scale"]) for it in iterations for t in it["check_samples"]]
    skipped = outcomes.pop("skipped_anchor_rounds")
    vertices = source["counts"]["vertex-created"]
    digest = source["digest"]
    passed = sum(1 for _, status in verdicts if status == "ok")

    # Timings as (unscaled seconds, scale) pairs.
    timings = {
        "setup_s": [(_setup(it), it["scale"]) for it in iterations],
        "wall_s": [(_wall(it), it["scale"]) for it in iterations],
        "run_s": [(it["run_s"], it["scale"]) for it in iterations],
        "check_s": check_s,
    }
    samples = {name: [t * scale for t, scale in pairs] for name, pairs in timings.items()}
    samples["vertices_per_s"] = [vertices / (it["sim_s"] * it["scale"]) for it in iterations]
    samples["peak_rss_mb"] = [it["rss_kb"] * 1024 / 1e6 for it in iterations]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics.update(trace_mb=source["trace_bytes"] / 1e6, **outcomes, check_pass_ratio=passed / len(verdicts))
    lines = [f"{name}: median of {_describe(values)}" for name, values in samples.items()]
    probes = [it["probe_s"] for it in iterations + parts]
    lines.append(
        f"host probe: median {statistics.median(probes) * 1e3:.3f} ms, from {min(probes) * 1e3:.3f} to "
        f"{max(probes) * 1e3:.3f} ms; unscaled medians: "
        + ", ".join(f"{name} {statistics.median(t for t, _ in pairs):.4g}" for name, pairs in timings.items())
    )
    lines.append(f"vertices created per action: {vertices}; verdicts: {passed}/{len(verdicts)} ok")
    lines.append(f"skipped anchor rounds (metrics.compute_metrics): {skipped:g}")
    lines.append(f"trace digest (sha256): {digest}")
    lines += _pinned_digest_note(bench, digest)
    return metrics, attempted, issues, lines


def _verification(bench: Bench, seed: int) -> dict[str, Any]:
    return scaled(lambda: bench.child("verify", seed=seed))


def _merged(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Join the verification passes of the scenario seeds, in seed order.

    The digest is the sha256 over the passes' digests.
    """
    merged: dict[str, Any] = {
        "verdicts": [v for part in parts for v in part["verdicts"]],
        "per_seed": [part["pair"] for part in parts],
        "digest": hashlib.sha256(b"".join(bytes.fromhex(part["digest"]) for part in parts)).hexdigest(),
    }
    for key in ("skipped_after_switch", "trace_bytes"):
        merged[key] = sum(part[key] for part in parts)
    for key in ("counts", "layers"):
        if key in parts[0]:
            merged[key] = {name: sum(part[key][name] for part in parts) for name in parts[0][key]}
    merged["spans"] = [span for part in parts for span in part.get("spans", [])]
    return merged


def _pinned_digest_note(bench: Bench, digest: str) -> list[str]:
    baseline = HERE / "baseline.json"
    if bench.seed != 0 or not baseline.is_file():
        return []
    pinned = json.loads(baseline.read_text())["workloads"].get(bench.workload.name, {}).get("seed0_digest")
    if pinned is None:
        return []
    if pinned == digest:
        return ["trace digest matches the pinned seed-0 digest"]
    return [f"note: trace digest differs from the pinned seed-0 digest {pinned}: behaviour changed"]


def trace(bench: Bench) -> tuple[dict[str, float], int, dict[str, list[str]], list[str], list[Any]]:
    """One untraced and one traced action: per-layer metrics and self-checks.

    Returns the metrics, the number of actions, the problems of each failed
    action, report lines and the traced action's individual spans.
    """
    runs = {"untraced": bench.action(checks=1), "traced": bench.action(trace="all", checks=1)}
    plain, traced = runs["untraced"], runs["traced"]
    layer_metrics = dict(traced["layers"])
    spans = traced["spans"]
    issues: dict[str, list[str]] = {}
    if bench.is_compare:
        verified = runs["verification"] = _merged([bench.child("verify", "checks", seed=seed) for seed in bench.seeds])
        layer_metrics.update({k: v for k, v in verified["layers"].items() if k.startswith("checks.")})
        spans += verified["spans"]
        counts = verified["counts"]
        for name, result in runs.items():
            found = _failed_verdicts(result.get("verdicts", []))
            if result["per_seed"] != verified["per_seed"]:
                found.append("compare metrics differ from the verification pass")
            if found:
                issues[name] = found
    else:
        counts = traced["counts"]
        for name, result in runs.items():
            found = _failed_verdicts(result["verdicts"])
            if not result["metrics_match"]:
                found.append("metrics.json differs from metrics recomputed from the traces")
            if found:
                issues[name] = found
        if traced["digest"] != plain["digest"]:
            issues.setdefault("traced", []).append("tracing changed the trace digest")
    layer_metrics["tracing.overhead_s"] = _wall(traced) - _wall(plain)

    lines = [f"untraced wall_s {_wall(plain):.4f}, traced wall_s {_wall(traced):.4f}"]
    for label, traced_count, recomputed in (
        ("traces.emit.calls vs trace records", layer_metrics["traces.emit.calls"], counts["records"]),
        (
            "dag.insert INSERTED vs vertex-delivered records",
            traced["counters"].get("dag.insert.inserted", 0),
            counts["vertex-delivered"],
        ),
        (
            "reputation.compute_scores.calls vs schedule-switched records",
            layer_metrics["reputation.compute_scores.calls"],
            counts["schedule-switched"],
        ),
    ):
        same = traced_count == recomputed
        lines.append(f"self-check {label}: {traced_count} vs {recomputed} {'ok' if same else 'MISMATCH'}")
        if not same:
            issues.setdefault("traced", []).append(f"self-check {label}: {traced_count} vs {recomputed}")
    return layer_metrics, len(runs), issues, lines, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repdag" / "__init__.py").is_file():
        print(f"perfbench: no repdag sources at {SRC}; run from the root of a repdag checkout", file=sys.stderr)
        return 2
    # Build: compile the sources once so that no measured action pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repdag")], check=True, stdout=subprocess.DEVNULL)

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, work)
        if args.trace:
            values, attempted, issues, lines, spans = trace(bench)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"{workload.name}-seed{args.seed}-spans.json"
            spans_path.write_text(json.dumps([dict(zip(("name", "start", "end", "parent"), s)) for s in spans]))
            lines.append(f"{len(spans)} spans written to {spans_path.relative_to(ROOT)}")
        else:
            values, attempted, issues, lines = measure(bench, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(f"  {line}")
    for name, found in issues.items():
        for issue in found:
            print(f"  FAILED {name}: {issue}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    result = {
        "correct": not issues,
        "attempted": attempted,
        "failed": len(issues),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
