import json

from repdag.cli import main
from repdag.harness import load_run
from repdag.metrics import compute_metrics

from .test_golden import CORPUS, PERSISTED


def synthetic_manifest():
    return {"config": {"stakes": [1, 1, 1, 1], "faultPlan": [], "GST": 0, "Delta": 2, "T": 10}}


def test_latency_and_throughput_hand_computed():
    records = {
        0: [
            {"at": 5, "kind": "vertex-created", "id": [2, 0], "txCount": 3},
            {"at": 9, "kind": "anchor-committed", "round": 2, "leader": 0, "direct": True, "ordered": [[2, 0]]},
            {"at": 11, "kind": "anchor-committed", "round": 4, "leader": 0, "direct": True, "ordered": [[2, 0]]},
        ],
        1: [
            {"at": 6, "kind": "vertex-created", "id": [2, 1], "txCount": 1},
            {"at": 20, "kind": "anchor-committed", "round": 4, "leader": 1, "direct": True, "ordered": [[2, 1]]},
        ],
        2: [],
        3: [],
    }
    m = compute_metrics(records, synthetic_manifest())
    # samples: three txs at latency 4 (first ordering only), one at 14
    assert m.latency_avg == (4 * 3 + 14) / 4
    assert m.latency_p50 == 4
    assert m.latency_p95 == 14
    # four distinct txs over horizon 20
    assert m.distinct_txs == 4
    assert m.throughput == 4 / 20
    assert m.horizon == 20


def test_skipped_anchor_rounds_counted_between_commits():
    records = {
        0: [
            {"at": 3, "kind": "anchor-committed", "round": 2, "leader": 1, "direct": True, "ordered": []},
            {"at": 9, "kind": "anchor-committed", "round": 8, "leader": 0, "direct": True, "ordered": []},
        ],
        1: [
            {"at": 4, "kind": "anchor-committed", "round": 6, "leader": 3, "direct": False, "ordered": []},
        ],
        2: [],
        3: [],
    }
    m = compute_metrics(records, synthetic_manifest())
    # committed rounds across honest nodes: 2, 6, 8 -> round 4 skipped
    assert m.skipped_anchor_rounds == 1


def test_epoch_switch_lag_requires_all_honest():
    base = {"at": 0, "kind": "schedule-switched", "epoch": 1, "initialRound": 12, "slots": [0], "scores": {}}
    records = {
        0: [{**base, "at": 10}],
        1: [{**base, "at": 13}],
        2: [{**base, "at": 11}],
        3: [],  # never switched: epoch 1 is not counted
    }
    m = compute_metrics(records, synthetic_manifest())
    assert m.epoch_switch_lag_max == 0
    records[3] = [{**base, "at": 18}]
    m = compute_metrics(records, synthetic_manifest())
    assert m.epoch_switch_lag_max == 8


def test_crashed_nodes_excluded_from_throughput():
    manifest = {"config": {"stakes": [1, 1, 1, 1], "faultPlan": [[0, 0]], "GST": 0, "Delta": 2, "T": 10}}
    records = {
        0: [
            {"at": 1, "kind": "vertex-created", "id": [0, 0], "txCount": 9},
            {"at": 2, "kind": "anchor-committed", "round": 2, "leader": 0, "direct": True, "ordered": [[0, 0]]},
        ],
        1: [{"at": 4, "kind": "vertex-created", "id": [0, 1], "txCount": 2}],
        2: [],
        3: [],
    }
    m = compute_metrics(records, manifest)
    assert m.distinct_txs == 0  # only the crashed node ordered anything


def test_metrics_recompute_equals_stored(tmp_path):
    for name in PERSISTED:
        config, out = tmp_path / f"{name}.json", tmp_path / name
        config.write_text(json.dumps(CORPUS[name][0]))
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        manifest, records = load_run(out)
        stored = json.loads((out / "metrics.json").read_text())
        assert stored == compute_metrics(records, manifest).to_dict(), name
