"""Pinned digests of the node traces for a fixed corpus of scenarios.

Node traces are the behaviour contract: a refactor or optimisation must leave
them byte-identical. ``manifest.json`` is left out on purpose, because its
``endTime`` and ``eventsExecuted`` describe the event loop, not the protocol.

The corpus covers the cases where delivery order is subtle: Delta 3 and 5,
where an echo can reach a peer before the direct copy; ``random:`` and
``hold`` pre-GST policies; crashes at t=0 and mid-run, with copies still in
flight to the crashed validator; a ``maxTime`` stop; round-robin mode; Delta 1
across GST, where post-GST delays are fixed and draw nothing; and 75 schedule
epochs, where old rounds are looked up in a long schedule book.
"""

import hashlib

import pytest

from repdag.config import parse_config
from repdag.harness import write_run
from repdag.simnet import run

CORPUS = {
    "n4-d2": (
        {"stakes": [1] * 4, "Delta": 2, "stop": {"maxRound": 24}, "seed": 0},
        "12a98d90e82a3aec7e666b4b7e2ea7f7bae37fb402b629de92027c5d01adc7c5",
    ),
    "n7-d1": (
        {"stakes": [1] * 7, "Delta": 1, "stop": {"maxRound": 30}, "seed": 11},
        "0c50e2d7c90fbc232ec98838012f05df4ed255fb390ea373d3512ffbfc35b298",
    ),
    "n4-d3": (
        {"stakes": [1] * 4, "Delta": 3, "stop": {"maxRound": 30}, "seed": 1},
        "7d0e4554c3600dc4ed9be4d634cb4844363a9a6b0d7fc3b13620fea7bb671bc1",
    ),
    "n7-d5": (
        {"stakes": [1] * 7, "Delta": 5, "stop": {"maxRound": 24}, "seed": 2},
        "ec83921f82ecbcaa8a29fbd926aaf83cf3fb4eb333aec1974f5e357fe203ef32",
    ),
    "n4-d5-rr": (
        {"stakes": [1] * 4, "mode": "round-robin", "Delta": 5, "stop": {"maxRound": 24}, "seed": 3},
        "586ecc9d6178371034e4cf393770433891a9f7b6d2a1e0c05903c7d0d4292995",
    ),
    "n7-random-gst": (
        {"stakes": [1] * 7, "GST": 25, "preGstPolicy": "random:9", "Delta": 3, "stop": {"maxRound": 24}, "seed": 4},
        "285d497edd16561eeed19c8f5954ee8055899f79eac750b45c064a92213ba218",
    ),
    "n4-hold-gst": (
        {"stakes": [1] * 4, "GST": 30, "Delta": 3, "stop": {"maxRound": 24}, "seed": 5},
        "02fec53c8b53f202a62b3874228ad7cc86896b68a7c22ae8caf38eb93c68e3be",
    ),
    "n10-crash-mid": (
        {"stakes": [1] * 10, "Delta": 3, "faultPlan": [[9, 5], [8, 5], [7, 5]], "stop": {"maxRound": 24}, "seed": 6},
        "84944ecc8b46ca5e23d500727cf5b3bf0640829a1ed9a17da0de744ce69a56bc",
    ),
    "n4-crash-zero": (
        {"stakes": [1] * 4, "leaderTimeout": 9, "faultPlan": [[0, 0]], "stop": {"maxRound": 24}, "seed": 29},
        "6cb016c63e0f01da5c077204adc31320b8ba0ce6187de5bec573fe98f128db44",
    ),
    "n7-crash-late-random": (
        {"stakes": [1] * 7, "GST": 20, "preGstPolicy": "random:12", "Delta": 5, "faultPlan": [[3, 40], [5, 17]], "stop": {"maxRound": 30}, "seed": 7},
        "e8dd10ea6a85cd6e36b2060b5e9b0c793b218971b9935d31c8c5c6f303ac8b61",
    ),
    "n4-maxtime": (
        {"stakes": [1] * 4, "stop": {"maxTime": 90}, "seed": 17},
        "f5ada2fbfada6a332463b596b4bd68abc5d573c7bd29a12762958ada8bcf9e41",
    ),
    "n4-maxtime-crash": (
        {"stakes": [1] * 4, "GST": 20, "preGstPolicy": "random:6", "Delta": 5, "faultPlan": [[2, 30]], "stop": {"maxTime": 60}, "seed": 8},
        "1a2a623fd74dcd80199d597d2eebf51c57e59098d17e0c81ddf93c6b530a1e7a",
    ),
    "n4-epochs": (
        {"stakes": [1] * 4, "T": 4, "Delta": 3, "stop": {"maxRound": 30}, "seed": 21},
        "7a8a3578e74cc76bd81ed10cb62a6691c7f32758c480a1e0bfff3ddf818b612c",
    ),
    "n7-weighted": (
        {"stakes": [3, 1, 1, 1, 1, 1, 1], "Delta": 3, "stop": {"maxRound": 24}, "seed": 8},
        "5be03617da47480860faa1cd9befdd89b2d68cb1098105c6b144168a6f62a905",
    ),
    "n10-rr-crash-zero": (
        {"stakes": [1] * 10, "mode": "round-robin", "GST": 10, "preGstPolicy": "random:8", "Delta": 3, "leaderTimeout": 12, "faultPlan": [[9, 0], [2, 0]], "stop": {"maxRound": 24}, "seed": 9},
        "66ae143680898bff8155e09eeb8a4675ea02ffb05b02942ab5a32e90035052a9",
    ),
    "n5-slots-no-tx": (
        {"stakes": [2, 2, 1, 1, 1], "L": 10, "Delta": 4, "txRatePerNode": 0, "stop": {"maxRound": 24}, "seed": 13},
        "f6e39ca4664e2c2ec800cbe434d8a4f4f909aed594dc05e8ccd2b399c2e623d9",
    ),
    "n7-d1-gst-crash": (
        {"stakes": [1] * 7, "GST": 30, "preGstPolicy": "random:9", "Delta": 1, "faultPlan": [[4, 18]], "stop": {"maxRound": 30}, "seed": 10},
        "5c7c74937a7d0bb1edf696ff5026452dddb596d0fffa4b5ba29862091d0014d0",
    ),
    "n4-t2-long-crash-zero": (
        {"stakes": [1] * 4, "T": 2, "faultPlan": [[2, 0]], "stop": {"maxRound": 300}, "seed": 12},
        "7820e3e098f2fe58e935ff77c6686dccfc393c5cc9cc8a6f7fa9649da8e552ac",
    ),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_node_trace_digest_is_pinned(name, tmp_path):
    raw, pinned = CORPUS[name]
    out = write_run(run(parse_config(raw)), tmp_path)
    digest = hashlib.sha256()
    for trace_file in sorted(out.glob("node-*.jsonl")):
        digest.update(trace_file.read_bytes())
    actual = digest.hexdigest()
    assert actual == pinned, f"{name}: node traces hash to {actual}"
