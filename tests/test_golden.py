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
        "2597a34ad8f64549f7843b4f84cccb84781ef7916b2c97c5bbfb6c5e88f9327d",
    ),
    "n7-d1": (
        {"stakes": [1] * 7, "Delta": 1, "stop": {"maxRound": 30}, "seed": 11},
        "c5429999f973ac091997d11fc362b7439b529210b13b90ac56861db82ae2a7b8",
    ),
    "n4-d3": (
        {"stakes": [1] * 4, "Delta": 3, "stop": {"maxRound": 30}, "seed": 1},
        "62946c0025365889334bac327d535f90c6410804831d99c8efa506661f2d38f8",
    ),
    "n7-d5": (
        {"stakes": [1] * 7, "Delta": 5, "stop": {"maxRound": 24}, "seed": 2},
        "3100e850cbb5b2c1f8f362ef30d7a99b9ec3e425f25c63f892e20402f6563d04",
    ),
    "n4-d5-rr": (
        {"stakes": [1] * 4, "mode": "round-robin", "Delta": 5, "stop": {"maxRound": 24}, "seed": 3},
        "05de3777a2afba196c9cd957257ad911ffc92f6ff6626f92fe94233d1a085f85",
    ),
    "n7-random-gst": (
        {"stakes": [1] * 7, "GST": 25, "preGstPolicy": "random:9", "Delta": 3, "stop": {"maxRound": 24}, "seed": 4},
        "40bc322bb0e79ddbe90a23c8b4e34a00972c171fa85ea395960a7211dc8a0015",
    ),
    "n4-hold-gst": (
        {"stakes": [1] * 4, "GST": 30, "Delta": 3, "stop": {"maxRound": 24}, "seed": 5},
        "979811bc7d1404316a33851c8533a7fe76df519bc435641b0ba98d337d4a1617",
    ),
    "n10-crash-mid": (
        {"stakes": [1] * 10, "Delta": 3, "faultPlan": [[9, 5], [8, 5], [7, 5]], "stop": {"maxRound": 24}, "seed": 6},
        "ce84b13c727fdd1860b032e5ccb85f8d70bb0a104b42bf762d5614bff9bae913",
    ),
    "n4-crash-zero": (
        {"stakes": [1] * 4, "leaderTimeout": 9, "faultPlan": [[0, 0]], "stop": {"maxRound": 24}, "seed": 29},
        "c48397ff683e2742d1c5f4e7c6b0846d5e67080f7464a96cbd6b3f1e1de3e756",
    ),
    "n7-crash-late-random": (
        {"stakes": [1] * 7, "GST": 20, "preGstPolicy": "random:12", "Delta": 5, "faultPlan": [[3, 40], [5, 17]], "stop": {"maxRound": 30}, "seed": 7},
        "4b8e500cca80e426c53689611d300d6066363d8df7ab502d77d793e1dac52d43",
    ),
    "n4-maxtime": (
        {"stakes": [1] * 4, "stop": {"maxTime": 90}, "seed": 17},
        "4f23d79e13db2f2f66f8a4f399341d76612f0b55ad9c5a86b5b5d0efffb43532",
    ),
    "n4-maxtime-crash": (
        {"stakes": [1] * 4, "GST": 20, "preGstPolicy": "random:6", "Delta": 5, "faultPlan": [[2, 30]], "stop": {"maxTime": 60}, "seed": 8},
        "abbb05db55adf5c7075f5d5377cfedf008a8447afb8200da7a375c54a74b16ee",
    ),
    "n4-epochs": (
        {"stakes": [1] * 4, "T": 4, "Delta": 3, "stop": {"maxRound": 30}, "seed": 21},
        "fafac236147466ed06dcc89d8d88ea41fa6961ad44546608b1fbbdaa5002f3a0",
    ),
    "n7-weighted": (
        {"stakes": [3, 1, 1, 1, 1, 1, 1], "Delta": 3, "stop": {"maxRound": 24}, "seed": 8},
        "262493902eb2805f529a5448157d24a89e430ab35428c523330bcf61773cfbdf",
    ),
    "n10-rr-crash-zero": (
        {"stakes": [1] * 10, "mode": "round-robin", "GST": 10, "preGstPolicy": "random:8", "Delta": 3, "leaderTimeout": 12, "faultPlan": [[9, 0], [2, 0]], "stop": {"maxRound": 24}, "seed": 9},
        "cf46a8f51161c28425a43179ab7cc8276764e7fcdc2faec723d03c5c34008c88",
    ),
    "n5-slots-no-tx": (
        {"stakes": [2, 2, 1, 1, 1], "L": 10, "Delta": 4, "txRatePerNode": 0, "stop": {"maxRound": 24}, "seed": 13},
        "de92a05c00349ee077727d30a1d410b78f8b2150751f17531f0f54d5bbe35056",
    ),
    "n7-d1-gst-crash": (
        {"stakes": [1] * 7, "GST": 30, "preGstPolicy": "random:9", "Delta": 1, "faultPlan": [[4, 18]], "stop": {"maxRound": 30}, "seed": 10},
        "8d1c692675748c22d9f0e96fb49216f324e7e39d12d6a75a84f8bfb56b2649e8",
    ),
    "n4-t2-long-crash-zero": (
        {"stakes": [1] * 4, "T": 2, "faultPlan": [[2, 0]], "stop": {"maxRound": 300}, "seed": 12},
        "f4d3fd32538c31a5dbab0f172be07facfca2b55477ca14887883ccc900acc38d",
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
