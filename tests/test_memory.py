"""What `repdag check` and `repdag run` hold at their peaks.

``load_run`` parses each trace one batch of lines at a time, so the memory
it needs beyond the records it returns does not grow with a trace's length.
``run_in_memory``, and so ``run_scenario`` too, drops each node's replica
state as soon as the simulation ends, before the metrics allocate.
"""

import json
import tracemalloc
import weakref

import pytest

from repdag import harness
from repdag.config import parse_config
from repdag.traces import VertexIds, serialize


def node_trace(count):
    """``count`` records shaped like one node's trace in a committee of four."""
    records = []
    r = 0
    while len(records) < count:
        records.append({"at": 3 * r, "kind": "vertex-created", "id": [r, 0], "txCount": 8})
        records.extend({"at": 3 * r + 1, "kind": "vertex-delivered", "id": [r, s]} for s in range(4))
        if r % 2 == 0 and r:
            ordered = [[r - 3, s] for s in range(4)] + [[r - 2, s] for s in range(4)]
            records.append({"at": 3 * r + 2, "kind": "anchor-committed", "round": r - 2, "leader": 0,
                            "direct": True, "ordered": ordered})
        r += 1
    return records[:count]


def load_transient(tmp_path, count, monkeypatch):
    """Bytes ``load_run`` allocates beyond the records it returns, for a trace of ``count`` records.

    The run's id table lives until ``load_run`` returns and grows with the
    vertices the records name, as the records do; it is kept here, so it
    counts as retained.
    """
    run_dir = tmp_path / str(count)
    run_dir.mkdir()
    (run_dir / harness.MANIFEST_NAME).write_text(json.dumps({"config": {"stakes": [1, 1]}}))
    (run_dir / "node-00.jsonl").write_text(serialize(0, node_trace(count)))
    (run_dir / "node-01.jsonl").write_text(serialize(1, []))
    tables = []

    def kept_table():
        tables.append(VertexIds())
        return tables[-1]

    monkeypatch.setattr(harness, "VertexIds", kept_table)
    tracemalloc.start()
    try:
        _, records = harness.load_run(run_dir)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records[0]) == count and len(tables) == 1
    return peak - retained


def test_load_run_transient_does_not_grow_with_the_trace(tmp_path, monkeypatch):
    short, long = (load_transient(tmp_path, count, monkeypatch) for count in (2_000, 8_000))
    # A whole-file parse holds the file's text, its lines and their joined
    # copies at once: about 4x more at 4x the records.
    assert long < 1.5 * short, (short, long)


def run_and_persist(cfg, out_dir):
    """``run_in_memory``, then its traces written as ``run_scenario`` writes them."""
    metrics, result = harness.run_in_memory(cfg)
    return metrics, harness.write_run(result, out_dir)


@pytest.mark.parametrize("entry", [harness.run_scenario, run_and_persist], ids=["run_scenario", "run_in_memory"])
def test_replica_state_is_freed_before_the_metrics(tmp_path, monkeypatch, entry):
    cfg = parse_config({"stakes": [1] * 4, "faultPlan": [[3, 20]], "stop": {"maxRound": 16}, "seed": 3})
    dags = []
    simulate, compute = harness.run, harness.compute_metrics

    def watched_run(cfg):
        result = simulate(cfg)
        dags.extend(weakref.ref(node.dag) for node in result.nodes)
        return result

    def checked_metrics(records, manifest):
        assert all(dag() is None for dag in dags)
        return compute(records, manifest)

    monkeypatch.setattr(harness, "run", watched_run)
    monkeypatch.setattr(harness, "compute_metrics", checked_metrics)
    metrics, run_dir = entry(cfg, tmp_path / "run")
    monkeypatch.undo()
    assert len(dags) == cfg.n
    # The manifest and the metrics are those of the whole result.
    result = harness.run(cfg)
    whole = harness.write_run(result, tmp_path / "whole")
    assert {path.name: path.read_text() for path in run_dir.iterdir() if path.name != "metrics.json"} == {
        path.name: path.read_text() for path in whole.iterdir()
    }
    assert metrics == harness.compute_metrics(result.records_by_node, {"config": cfg.to_json_dict()})
