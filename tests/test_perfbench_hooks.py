"""The benchmark's per-layer hooks still fit the program.

``perfbench/layers.py`` wraps the per-copy boundaries (``Simulation.step``,
``Node.on_deliver``, ``DagState.insert``, ``Tracer.emit``) by name and reads
counters off their arguments and results. A change to those boundaries can
break ``perfbench/run.py --trace 1`` without failing anything here, as the
benchmark's own tests are not part of this suite. So this test installs the
hooks in a fresh process (the wrapping is process-wide), runs two small
scenarios and asserts the benchmark's three self-checks against the trace
records, and that the DAG walk of the commit path is timed at all.
It reads ``perfbench/`` and changes nothing there.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers
from repdag import simnet
from repdag.config import parse_config
from repdag.traces import serialize

cfg = parse_config(json.loads(sys.argv[3]))
plain = [serialize(t.node, t.records) for t in simnet.run(cfg).tracers]
rec = layers.Recorder()
layers.install(rec)
result = simnet.run(cfg)
records = [r for t in result.tracers for r in t.records]
print(json.dumps({
    "same_traces": plain == [serialize(t.node, t.records) for t in result.tracers],
    "emit_calls": rec.calls["traces.emit"],
    "records": len(records),
    "inserted": rec.counts["dag.insert.inserted"],
    "delivered_records": sum(r["kind"] == "vertex-delivered" for r in records),
    "on_deliver_calls": rec.calls["node.on_deliver"],
    "first_deliveries": rec.counts["node.first_deliveries"],
    "step_calls": rec.calls["simnet.step"],
    "compute_scores_calls": rec.calls["reputation.compute_scores"],
    "switched_records": sum(r["kind"] == "schedule-switched" for r in records),
    "causal_history_calls": rec.calls["dag.causal_history"],
}))
"""


@pytest.mark.parametrize(
    "raw",
    [
        {"stakes": [1] * 7, "Delta": 3, "faultPlan": [[2, 0]], "stop": {"maxRound": 12}, "seed": 1},
        {"stakes": [1] * 7, "Delta": 1, "stop": {"maxRound": 12}, "seed": 1},
    ],
    ids=["delta-3-crash-at-zero", "delta-1"],
)
def test_traced_counts_match_the_trace_records(raw):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"), json.dumps(raw)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["same_traces"]
    assert got["emit_calls"] == got["records"] > 0
    assert got["inserted"] == got["delivered_records"] > 0
    assert got["on_deliver_calls"] == got["first_deliveries"] > 0
    assert got["step_calls"] > got["on_deliver_calls"]
    assert got["compute_scores_calls"] == got["switched_records"] > 0
    # The commit path's walk stays visible to the per-layer view.
    assert got["causal_history_calls"] > 0
