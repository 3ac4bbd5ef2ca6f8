"""Tests of the benchmark itself, on small versions of its workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_excludes_child_spans():
    rec = layers.Recorder()

    def inner():
        time.sleep(0.02)

    wrapped_inner = rec.wrap("inner", inner, hot=True)

    def outer():
        wrapped_inner()
        wrapped_inner()
        time.sleep(0.01)

    rec.wrap("outer", outer)()
    assert rec.calls["inner"] == 2 and rec.calls["outer"] == 1
    assert rec.own["outer"] == pytest.approx(rec.total["outer"] - rec.total["inner"], abs=1e-3)
    assert 0.009 < rec.own["outer"] < 0.03
    # Only the rarely called span is kept individually, with no parent.
    assert [(name, parent) for name, _, _, parent in rec.spans] == [("outer", None)]


@pytest.mark.parametrize(
    "name, rounds",
    [("steady-n10", 24), ("long-epochs-n4", 60), ("compare-faults-n10", 40)],
)
def test_traced_counts_match_trace_records(tmp_path, name, rounds):
    bench = run.Bench(WORKLOADS[name], 3, tmp_path, rounds=rounds, compare_seeds=2)
    values, attempted, issues, lines, spans = run.trace(bench)
    assert issues == {}, lines
    assert attempted == (3 if bench.is_compare else 2)
    assert set(values) == set(layers.PER_LAYER)
    assert values["traces.emit.calls"] == values["traces.records"] > 0
    assert values["reputation.compute_scores.calls"] > 0
    assert values["simnet.step.self_s"] > 0 and values["dag.insert.self_s"] > 0
    assert any(s[0] == "cli.main" for s in spans)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    bench = run.Bench(WORKLOADS["steady-n10"], 5, tmp_path, rounds=16)
    values, attempted, issues, lines = run.measure(bench, seconds=0)
    assert issues == {} and attempted == run.MIN_ITERATIONS
    assert set(values) == set(run.END_TO_END)
    assert all(value > 0 for value in values.values())
    assert values["check_pass_ratio"] == 1.0


def test_missing_node_trace_is_not_trusted():
    import verify

    from repdag import harness
    from repdag.config import parse_config

    cfg = parse_config({"stakes": [1, 1, 1, 1], "stop": {"maxRound": 10}})
    _, result = harness.run_in_memory(cfg)
    records = result.records_by_node
    manifest = {"config": cfg.to_json_dict()}
    assert all(status == "ok" for _, status in verify.run_checkers(records, manifest))
    del records[2]
    verdicts = dict(verify.run_checkers(records, manifest))
    assert verdicts["traces-complete"] == "violation"
    assert verdicts["total-order"] == "untrusted"


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady-n10", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not (tmp_path / ".perfbench_work").exists() or not any((tmp_path / ".perfbench_work").iterdir())


def test_workload_configs_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        assert workload.configs(7) == workload.configs(7)
        assert json.dumps(workload.configs(7)) != json.dumps(workload.configs(8))


def test_skips_after_the_first_switch_count_only_dead_leaders_elected_by_reputation():
    import verify

    from repdag import harness
    from repdag.config import parse_config

    reputation, static = WORKLOADS["compare-faults-n10"].configs(0, 60)
    counted = {}
    for cfg in (parse_config(reputation).with_seed(3), parse_config(static).with_seed(3)):
        metrics, result = harness.run_in_memory(cfg)
        late = verify.skipped_after_switch(result.records_by_node, {"config": cfg.to_json_dict()})
        counted[cfg.mode] = (metrics.skipped_anchor_rounds, late)
    # Reputation skips only while the initial round-robin schedule is active.
    assert counted["hammerhead"][0] > 0 and counted["hammerhead"][1] == 0
    # Static rotation never switches, so every skip counts.
    assert counted["round-robin"][1] == counted["round-robin"][0] > 0
