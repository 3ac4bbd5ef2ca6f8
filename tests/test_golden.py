"""Pinned digests of the node traces for a fixed corpus of scenarios.

Node traces are the behaviour contract: a refactor or optimisation must leave
them byte-identical. ``manifest.json`` is left out on purpose, because its
``endTime`` and ``eventsExecuted`` describe the event loop, not the protocol.
They are pinned on their own instead, in ``COUNTERS``, as the digests cannot
see them: ``eventsExecuted`` is the number of handler calls (boots, first
deliveries and leader timeouts) and ``endTime`` the tick of the last one. The
events the loop retires without a call (crashes, timers whose round has
passed) count in neither.

The corpus covers the cases where delivery order is subtle: Delta 3 and 5,
where the copies of one vertex land at different ticks; ``random:`` and
``hold`` pre-GST policies; crashes at t=0 and mid-run, with copies still in
flight to the crashed validator; a ``maxTime`` stop; round-robin mode; Delta 1
across GST, where post-GST delays are fixed and draw nothing; 75 schedule
epochs, where old rounds are looked up in a long schedule book; and n=31 with
three mid-run crashes, where a row holds more than quorum vertices and each
vertex links to more parents than quorum needs; and an exclusion fraction of
0.15 with a crash at t=0 and one mid-run, where each switch swaps one
validator instead of the default two, so a switch path that fell back to the
default fraction would change the trace; and a ``random:0`` pre-GST
policy, whose zero bound still takes one draw per copy and adds no delay.

No copy lands before GST + 1, so a ``random:k`` bound below GST never shows
in a trace: ``n7-random30-gst`` is the one config whose bound exceeds GST.
Two configs pin the schedule-switch safety paths, where replicas commit in
different views: ``n4-split-10`` discards one anchor per node and commits
four anchors in ``retro_recheck``, and ``n4-split-689`` is a split view in
which one node counts the votes for an anchor under the outgoing schedule,
discards it at the switch, and commits in ``retro_recheck`` the anchor that
the other three commit directly.
``SPLIT_PATHS`` asserts that both still reach these paths.
"""

import hashlib

import pytest

from repdag import commit
from repdag.config import parse_config
from repdag.harness import write_run
from repdag.simnet import run

CORPUS = {
    "n4-d2": (
        {"stakes": [1] * 4, "Delta": 2, "stop": {"maxRound": 24}, "seed": 0},
        "981ae232656021b6e8c190711b635ed1fbb50630fbdc602ea4318c2d8ea0f6d7",
    ),
    "n7-d1": (
        {"stakes": [1] * 7, "Delta": 1, "stop": {"maxRound": 30}, "seed": 11},
        "74d1ed48d6221462eac1c7b9d16704670d96488e8ad915897e1b4dba3c910a51",
    ),
    "n4-d3": (
        {"stakes": [1] * 4, "Delta": 3, "stop": {"maxRound": 30}, "seed": 1},
        "704aeb1746a32a7a0df141ff0761f44fa373a030f1da444ef2af6f617d094fdd",
    ),
    "n7-d5": (
        {"stakes": [1] * 7, "Delta": 5, "stop": {"maxRound": 24}, "seed": 2},
        "6b21f74e2ef0116224da2e1f2b4487e3d0276c26b371cae3cf048cf3c47cf9c9",
    ),
    "n4-d5-rr": (
        {"stakes": [1] * 4, "mode": "round-robin", "Delta": 5, "stop": {"maxRound": 24}, "seed": 3},
        "f9c1d3d34acd1a8dd00339ffecb2589851d4b8e14a56910d61364fbd4cebaec2",
    ),
    "n7-random-gst": (
        {"stakes": [1] * 7, "GST": 25, "preGstPolicy": "random:9", "Delta": 3, "stop": {"maxRound": 24}, "seed": 4},
        "9754683e33fb60acca7731d06fc4d2647e8bbc7ebdb9dc266a81a3ac453e956b",
    ),
    "n4-hold-gst": (
        {"stakes": [1] * 4, "GST": 30, "Delta": 3, "stop": {"maxRound": 24}, "seed": 5},
        "a0902ab4fe320adddb74326e8d3fd65b2fb7a81b181b1cf7567be30311837c26",
    ),
    "n10-crash-mid": (
        {"stakes": [1] * 10, "Delta": 3, "faultPlan": [[9, 5], [8, 5], [7, 5]], "stop": {"maxRound": 24}, "seed": 6},
        "a6972be2daec89187772c52162ee8cb16f0885ff5bbba82abf9a25e63797781a",
    ),
    "n4-crash-zero": (
        {"stakes": [1] * 4, "leaderTimeout": 9, "faultPlan": [[0, 0]], "stop": {"maxRound": 24}, "seed": 29},
        "5842435b37357106c982820e97752825be34a7828922df5bcc3af936b044d7eb",
    ),
    "n7-crash-late-random": (
        {"stakes": [1] * 7, "GST": 20, "preGstPolicy": "random:12", "Delta": 5, "faultPlan": [[3, 40], [5, 17]], "stop": {"maxRound": 30}, "seed": 7},
        "cb18809137406ed610bdabd3185feb9b67b05556b3f58d1b74b0294c60e190ff",
    ),
    "n4-maxtime": (
        {"stakes": [1] * 4, "stop": {"maxTime": 90}, "seed": 17},
        "9975b0f88459d5d2713309e360d6ab363a47ece017604d5cd767ebf8673c39c5",
    ),
    "n4-maxtime-crash": (
        {"stakes": [1] * 4, "GST": 20, "preGstPolicy": "random:6", "Delta": 5, "faultPlan": [[2, 30]], "stop": {"maxTime": 60}, "seed": 8},
        "fef8805f74b7df0096a1351f5568eab1b977d03f22cb0af2a1c054124c9385ee",
    ),
    "n4-epochs": (
        {"stakes": [1] * 4, "T": 4, "Delta": 3, "stop": {"maxRound": 30}, "seed": 21},
        "4191360ed3329530089995ff8094a1a0662c2a9aec330bf6ab4a52fc88b3bf6e",
    ),
    "n7-weighted": (
        {"stakes": [3, 1, 1, 1, 1, 1, 1], "Delta": 3, "stop": {"maxRound": 24}, "seed": 8},
        "ab7b94ad05197f4d4b50df6f35e80075d46fccfc3e634384dabcbfd38fde0d16",
    ),
    "n10-rr-crash-zero": (
        {"stakes": [1] * 10, "mode": "round-robin", "GST": 10, "preGstPolicy": "random:8", "Delta": 3, "leaderTimeout": 12, "faultPlan": [[9, 0], [2, 0]], "stop": {"maxRound": 24}, "seed": 9},
        "a173b43e936e36e3b9879bb6a2bdb07706bb95c402aaaff86af82894762bb6b6",
    ),
    "n5-slots-no-tx": (
        {"stakes": [2, 2, 1, 1, 1], "L": 10, "Delta": 4, "txRatePerNode": 0, "stop": {"maxRound": 24}, "seed": 13},
        "0a1d0e9fd09200d1b7048136cf3b15c7246a405f9ba45c486625e07a5d71feb9",
    ),
    "n7-d1-gst-crash": (
        {"stakes": [1] * 7, "GST": 30, "preGstPolicy": "random:9", "Delta": 1, "faultPlan": [[4, 18]], "stop": {"maxRound": 30}, "seed": 10},
        "dbe56395978bad8442888ffa575a70a7825426f4a283b397b978c4a49fb64094",
    ),
    "n4-t2-long-crash-zero": (
        {"stakes": [1] * 4, "T": 2, "faultPlan": [[2, 0]], "stop": {"maxRound": 300}, "seed": 12},
        "8bd124e2c742b5fc27c0c0d37e1ce7c8c82c9ae9efdc2106540c1e0ba25ebe08",
    ),
    "n31-crash-mid": (
        {"stakes": [1] * 31, "Delta": 3, "faultPlan": [[30, 6], [29, 6], [28, 6]], "stop": {"maxRound": 16}, "seed": 9},
        "58799b673cd5b2e658b3332165590c46c6e74eaae71ef931cd3d9bf4993c6631",
    ),
    "n7-excl15-crash": (
        {"stakes": [1] * 7, "T": 4, "exclusionFraction": 0.15, "faultPlan": [[5, 0], [6, 30]], "stop": {"maxRound": 60}, "seed": 5},
        "18be62e02ac7ec7a2587bc430f0bf69f50f4d6d431c7d7e41e631658d5835258",
    ),
    "n7-random0-gst": (
        {"stakes": [1] * 7, "GST": 20, "preGstPolicy": "random:0", "Delta": 3, "stop": {"maxRound": 24}, "seed": 14},
        "c8d7c550b692a7e1ba5a4eee8163e3e1ab50cc3f3d08d49cbfc6b2f93ad79dd4",
    ),
    "n7-random30-gst": (
        {"stakes": [1] * 7, "GST": 25, "preGstPolicy": "random:30", "Delta": 3, "stop": {"maxRound": 30}, "seed": 4},
        "97672cd4f56c1d4452ee7c9e9d389485cdc661b76dbd4ca38eebd002b3e3194a",
    ),
    "n4-split-10": (
        {"stakes": [1, 5, 1, 2], "Delta": 3, "leaderTimeout": 1, "GST": 10, "preGstPolicy": "random:8", "T": 4, "stop": {"maxRound": 60}, "seed": 10},
        "92e29c7da1a611b3bc579e52ea2c407dec89825e2b990e71dd6832ccfa43aca1",
    ),
    "n4-split-689": (
        {"stakes": [1, 1, 1, 2], "Delta": 8, "leaderTimeout": 1, "GST": 0, "preGstPolicy": "random:8", "T": 2, "stop": {"maxRound": 60}, "seed": 689},
        "11c054f0012dd6994c16da4f337b01738cc6e4b9860fafb31b74c85d30cce996",
    ),
}

# (end_time, events_executed) of each corpus run: the tick of the last
# handler call, and the number of handler calls.
COUNTERS = {
    "n10-crash-mid": (79, 1349),
    "n10-rr-crash-zero": (118, 1632),
    "n31-crash-mid": (46, 13786),
    "n4-crash-zero": (56, 231),
    "n4-d2": (40, 404),
    "n4-d3": (70, 500),
    "n4-d5-rr": (85, 404),
    "n4-epochs": (68, 500),
    "n4-hold-gst": (87, 404),
    "n4-maxtime": (90, 951),
    "n4-maxtime-crash": (60, 120),
    "n4-split-10": (142, 986),
    "n4-split-689": (294, 992),
    "n4-t2-long-crash-zero": (576, 2715),
    "n5-slots-no-tx": (72, 630),
    "n7-crash-late-random": (172, 848),
    "n7-d1": (31, 1526),
    "n7-d1-gst-crash": (61, 1130),
    "n7-d5": (91, 1232),
    "n7-excl15-crash": (123, 1717),
    "n7-random-gst": (86, 1232),
    "n7-random0-gst": (81, 1232),
    "n7-random30-gst": (100, 1526),
    "n7-weighted": (61, 1232),
}

# Per split-view config: the anchors each node discards, and the anchors
# that ``retro_recheck`` commits over all nodes.
SPLIT_PATHS = {
    "n4-split-10": ([1, 1, 1, 1], 4),
    "n4-split-689": ([1, 0, 0, 0], 1),
}

# Scenarios that the trace round-trip and stored-metrics tests also run:
# crashes mid-run, a maxTime stop with a crash, random pre-GST delays,
# schedule epochs, and weighted stakes without transactions.
PERSISTED = ("n10-crash-mid", "n4-maxtime-crash", "n7-random-gst", "n4-epochs", "n5-slots-no-tx")


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_node_trace_digest_is_pinned(name, tmp_path):
    raw, pinned = CORPUS[name]
    out = write_run(run(parse_config(raw)), tmp_path)
    digest = hashlib.sha256()
    for trace_file in sorted(out.glob("node-*.jsonl")):
        digest.update(trace_file.read_bytes())
    actual = digest.hexdigest()
    assert actual == pinned, f"{name}: node traces hash to {actual}"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_event_loop_counters_are_pinned(name):
    result = run(parse_config(CORPUS[name][0]))
    assert (result.end_time, result.events_executed) == COUNTERS[name]


@pytest.mark.parametrize("name", sorted(SPLIT_PATHS))
def test_split_view_configs_reach_their_paths(name, monkeypatch):
    rechecked = []

    def counting_retro_recheck(state, dag, tracer, recheck=commit.retro_recheck):
        before = sum(rec["kind"] == "anchor-committed" for rec in tracer.records)
        recheck(state, dag, tracer)
        rechecked.append(sum(rec["kind"] == "anchor-committed" for rec in tracer.records) - before)

    monkeypatch.setattr(commit, "retro_recheck", counting_retro_recheck)
    result = run(parse_config(CORPUS[name][0]))
    discards = [len(node.commit.discarded_anchors) for node in result.nodes]
    assert (discards, sum(rechecked)) == SPLIT_PATHS[name]
