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
        "faa46cab91ead50c467d6f539589be758373daa9430ebb26bc168c9d1dbd0f7b",
    ),
    "n7-d1": (
        {"stakes": [1] * 7, "Delta": 1, "stop": {"maxRound": 30}, "seed": 11},
        "7fae4e22c1043b4095bc3e00dff78cdc9e52b932244854fa9cfa19f18f4c7cc5",
    ),
    "n4-d3": (
        {"stakes": [1] * 4, "Delta": 3, "stop": {"maxRound": 30}, "seed": 1},
        "666906ff110bddc1046aa184f98c6e48350787fb5c156c1c75d8a2db178ab524",
    ),
    "n7-d5": (
        {"stakes": [1] * 7, "Delta": 5, "stop": {"maxRound": 24}, "seed": 2},
        "ef46240bf8cb51dfbf5dc08097b1fe49bdc1935d40f7fa46b47b351af604ec03",
    ),
    "n4-d5-rr": (
        {"stakes": [1] * 4, "mode": "round-robin", "Delta": 5, "stop": {"maxRound": 24}, "seed": 3},
        "1aa97956b0eda34d2dcae1716be5566bfb8bbbd9a180cbe81b6458cfe8f56187",
    ),
    "n7-random-gst": (
        {"stakes": [1] * 7, "GST": 25, "preGstPolicy": "random:9", "Delta": 3, "stop": {"maxRound": 24}, "seed": 4},
        "ca7a93cdc47a1358adbe86c2d37777c5aa18fd86cbd1b7704f768a5a2552901c",
    ),
    "n4-hold-gst": (
        {"stakes": [1] * 4, "GST": 30, "Delta": 3, "stop": {"maxRound": 24}, "seed": 5},
        "0e9f5e222c2c79eb82d14ba7302426fd09a82458850da9ef1855be3603d66ecd",
    ),
    "n10-crash-mid": (
        {"stakes": [1] * 10, "Delta": 3, "faultPlan": [[9, 5], [8, 5], [7, 5]], "stop": {"maxRound": 24}, "seed": 6},
        "15c078376a479345b579edc493fd5b0f2a64782ffe077966d8d54b83452c6b57",
    ),
    "n4-crash-zero": (
        {"stakes": [1] * 4, "leaderTimeout": 9, "faultPlan": [[0, 0]], "stop": {"maxRound": 24}, "seed": 29},
        "175d44cb817d475fdf654e557d970604e9ccbb75849ae9ba6e5a350f9a2dcf39",
    ),
    "n7-crash-late-random": (
        {"stakes": [1] * 7, "GST": 20, "preGstPolicy": "random:12", "Delta": 5, "faultPlan": [[3, 40], [5, 17]], "stop": {"maxRound": 30}, "seed": 7},
        "0b001fdc1a1426155a71ee1f4414556487805eeb7685dd33f8950f6b5c47d649",
    ),
    "n4-maxtime": (
        {"stakes": [1] * 4, "stop": {"maxTime": 90}, "seed": 17},
        "42f0eff67c641cf8926285b503a8310def5dfc3f659fa2536750e11d09b08bb8",
    ),
    "n4-maxtime-crash": (
        {"stakes": [1] * 4, "GST": 20, "preGstPolicy": "random:6", "Delta": 5, "faultPlan": [[2, 30]], "stop": {"maxTime": 60}, "seed": 8},
        "64c9bb0ba4174369493a061011f17bfcb63c585d484a793d24c9961c653e3514",
    ),
    "n4-epochs": (
        {"stakes": [1] * 4, "T": 4, "Delta": 3, "stop": {"maxRound": 30}, "seed": 21},
        "0a310530ded1d0af0a1ea78a335d34c7b612f38b66f2389d9b01c9a4a7c20f38",
    ),
    "n7-weighted": (
        {"stakes": [3, 1, 1, 1, 1, 1, 1], "Delta": 3, "stop": {"maxRound": 24}, "seed": 8},
        "7f42488511d4b767f7512cc7514cf8fc73fd8247890744aa15c6bce7745be065",
    ),
    "n10-rr-crash-zero": (
        {"stakes": [1] * 10, "mode": "round-robin", "GST": 10, "preGstPolicy": "random:8", "Delta": 3, "leaderTimeout": 12, "faultPlan": [[9, 0], [2, 0]], "stop": {"maxRound": 24}, "seed": 9},
        "4c519c52cf19ec11ae53bfa128910a5a02eb0055269f6ae6951232a25bfac210",
    ),
    "n5-slots-no-tx": (
        {"stakes": [2, 2, 1, 1, 1], "L": 10, "Delta": 4, "txRatePerNode": 0, "stop": {"maxRound": 24}, "seed": 13},
        "0ff60df23697b425f845f3ac85e74b47797d1b1addd3cb3b4c33707c16f1d739",
    ),
    "n7-d1-gst-crash": (
        {"stakes": [1] * 7, "GST": 30, "preGstPolicy": "random:9", "Delta": 1, "faultPlan": [[4, 18]], "stop": {"maxRound": 30}, "seed": 10},
        "0d801779e5e1f79aea2e824084676395dec166514a1037b257800432e3e02342",
    ),
    "n4-t2-long-crash-zero": (
        {"stakes": [1] * 4, "T": 2, "faultPlan": [[2, 0]], "stop": {"maxRound": 300}, "seed": 12},
        "6a01c8cdc726325b069f701be1c96f03f4bf6adfec69b9744603093c84e17786",
    ),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_node_trace_digest_is_pinned(name, tmp_path):
    raw, pinned = CORPUS[name]
    out = write_run(run(parse_config(raw)), tmp_path)
    digest = hashlib.sha256()
    for trace_file in sorted(out.glob("node-*.jsonl")):
        digest.update(trace_file.read_bytes())
    assert digest.hexdigest() == pinned
