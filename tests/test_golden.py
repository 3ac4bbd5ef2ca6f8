"""Pinned digests of the node traces for a fixed corpus of scenarios.

Node traces are the behaviour contract: a refactor or optimisation must leave
them byte-identical. ``manifest.json`` is left out on purpose, because its
``endTime`` and ``eventsExecuted`` describe the event loop, not the protocol.
They are pinned on their own instead, in ``COUNTERS``, as the digests cannot
see them: ``eventsExecuted`` is the number of handler calls (boots, first
deliveries and leader timeouts) and ``endTime`` the tick of the last one. The
events the loop retires without a call (crashes, overtaken copies, timers
whose round has passed) count in neither.

The corpus covers the cases where delivery order is subtle: Delta 3 and 5,
where an echo can reach a peer before the direct copy; ``random:`` and
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
different views: ``n4-split-160`` discards one anchor per node and commits
four anchors in ``retro_recheck``, and ``n4-split-804`` is a split view in
which three nodes discard an anchor that the fourth commits.
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
        "4563fc3b83498db79700f44d2fbeefcd4166e4b03dcebd57bb5454c1435e314f",
    ),
    "n7-d1": (
        {"stakes": [1] * 7, "Delta": 1, "stop": {"maxRound": 30}, "seed": 11},
        "74d1ed48d6221462eac1c7b9d16704670d96488e8ad915897e1b4dba3c910a51",
    ),
    "n4-d3": (
        {"stakes": [1] * 4, "Delta": 3, "stop": {"maxRound": 30}, "seed": 1},
        "5aee7b4b0974254ca82c542d9b342a0a604dce8024016689864b5698711c6e1d",
    ),
    "n7-d5": (
        {"stakes": [1] * 7, "Delta": 5, "stop": {"maxRound": 24}, "seed": 2},
        "e655469eb7a0ce6e74875d9769a0da2ecd3c4d46f1ecae945859f01af0473c1e",
    ),
    "n4-d5-rr": (
        {"stakes": [1] * 4, "mode": "round-robin", "Delta": 5, "stop": {"maxRound": 24}, "seed": 3},
        "2bf373e3f5f9cf8b397d05b0bb440abba6249a4bdd5cfc7d926642dddaa949be",
    ),
    "n7-random-gst": (
        {"stakes": [1] * 7, "GST": 25, "preGstPolicy": "random:9", "Delta": 3, "stop": {"maxRound": 24}, "seed": 4},
        "8f95f20ea6e63ad38d339e3df84f17bf14e6994ea9ed6e957b28f90f3938cc8b",
    ),
    "n4-hold-gst": (
        {"stakes": [1] * 4, "GST": 30, "Delta": 3, "stop": {"maxRound": 24}, "seed": 5},
        "ee75ddbbf88478ee5ce7b278e1f2aed19e84128851ffa0ffba8ebc1be095fa09",
    ),
    "n10-crash-mid": (
        {"stakes": [1] * 10, "Delta": 3, "faultPlan": [[9, 5], [8, 5], [7, 5]], "stop": {"maxRound": 24}, "seed": 6},
        "4f5197c0af6145c547305e9cf2d74e1069663662b62f674792945927055c805a",
    ),
    "n4-crash-zero": (
        {"stakes": [1] * 4, "leaderTimeout": 9, "faultPlan": [[0, 0]], "stop": {"maxRound": 24}, "seed": 29},
        "db7eb1ad8018d8dc473cd00e73a77ed64a9443046d676f94822643935c832c30",
    ),
    "n7-crash-late-random": (
        {"stakes": [1] * 7, "GST": 20, "preGstPolicy": "random:12", "Delta": 5, "faultPlan": [[3, 40], [5, 17]], "stop": {"maxRound": 30}, "seed": 7},
        "5c98fc2b78b9787826cebd7ba62b9488cafcd6603941ae979461854a6064cd0c",
    ),
    "n4-maxtime": (
        {"stakes": [1] * 4, "stop": {"maxTime": 90}, "seed": 17},
        "ded066d9d8871e6c71d9a950e2ae5029d3b08c8cc1528bd36257b0e793913c9b",
    ),
    "n4-maxtime-crash": (
        {"stakes": [1] * 4, "GST": 20, "preGstPolicy": "random:6", "Delta": 5, "faultPlan": [[2, 30]], "stop": {"maxTime": 60}, "seed": 8},
        "c8919f883872148dabf87f3ddf038feeb041b13ff4bb0dbf8ce804bce5e08ad5",
    ),
    "n4-epochs": (
        {"stakes": [1] * 4, "T": 4, "Delta": 3, "stop": {"maxRound": 30}, "seed": 21},
        "69b1a9298cc9254a653e022ad9c618acabbacaa0c818d8d397bd2e205fa50e80",
    ),
    "n7-weighted": (
        {"stakes": [3, 1, 1, 1, 1, 1, 1], "Delta": 3, "stop": {"maxRound": 24}, "seed": 8},
        "da8a4a452f682a28bc05b365197c06303f8ef9458498b29d6318e3c5f2aec93a",
    ),
    "n10-rr-crash-zero": (
        {"stakes": [1] * 10, "mode": "round-robin", "GST": 10, "preGstPolicy": "random:8", "Delta": 3, "leaderTimeout": 12, "faultPlan": [[9, 0], [2, 0]], "stop": {"maxRound": 24}, "seed": 9},
        "6ccae395b813d1588d4717a66ab58b2aff5396ae02f4705e886638df005b2cb9",
    ),
    "n5-slots-no-tx": (
        {"stakes": [2, 2, 1, 1, 1], "L": 10, "Delta": 4, "txRatePerNode": 0, "stop": {"maxRound": 24}, "seed": 13},
        "54cda835286f64949f2dc79cefecb42513e7429ec95239102af32f76140e8cd0",
    ),
    "n7-d1-gst-crash": (
        {"stakes": [1] * 7, "GST": 30, "preGstPolicy": "random:9", "Delta": 1, "faultPlan": [[4, 18]], "stop": {"maxRound": 30}, "seed": 10},
        "dbe56395978bad8442888ffa575a70a7825426f4a283b397b978c4a49fb64094",
    ),
    "n4-t2-long-crash-zero": (
        {"stakes": [1] * 4, "T": 2, "faultPlan": [[2, 0]], "stop": {"maxRound": 300}, "seed": 12},
        "a7a85c56b9fc460d12e5db63fc6270924792863cd72977054b3c9935fff9d8bc",
    ),
    "n31-crash-mid": (
        {"stakes": [1] * 31, "Delta": 3, "faultPlan": [[30, 6], [29, 6], [28, 6]], "stop": {"maxRound": 16}, "seed": 9},
        "733cc753806028f82a965c17d86941b1afe10f9674f3f29524e05408e864ee86",
    ),
    "n7-excl15-crash": (
        {"stakes": [1] * 7, "T": 4, "exclusionFraction": 0.15, "faultPlan": [[5, 0], [6, 30]], "stop": {"maxRound": 60}, "seed": 5},
        "077e5f30c7b9ce0530b8f3c857eeaae761c23fa3ba5801abcb63ac127ce2c078",
    ),
    "n7-random0-gst": (
        {"stakes": [1] * 7, "GST": 20, "preGstPolicy": "random:0", "Delta": 3, "stop": {"maxRound": 24}, "seed": 14},
        "4b642cdf7953167562f46deaa1ace6a7e3dbebe785f0517d18fd547fd1dbaa27",
    ),
    "n7-random30-gst": (
        {"stakes": [1] * 7, "GST": 25, "preGstPolicy": "random:30", "Delta": 3, "stop": {"maxRound": 30}, "seed": 4},
        "6b5146aa593aaefbf91ad900e9601c2570d2b52c66aebf9073b928ec33ec7cc4",
    ),
    "n4-split-160": (
        {"stakes": [1, 5, 1, 2], "Delta": 3, "leaderTimeout": 1, "GST": 10, "preGstPolicy": "random:8", "T": 4, "stop": {"maxRound": 60}, "seed": 160},
        "e339079d5c8f4e7eb1f79d82e95428df23aacf520dc5bacd780752d09350ac53",
    ),
    "n4-split-804": (
        {"stakes": [1, 1, 1, 2], "Delta": 8, "leaderTimeout": 1, "GST": 0, "preGstPolicy": "random:8", "T": 2, "stop": {"maxRound": 60}, "seed": 804},
        "08513b5aea43ac78242fd16a3eacfce38335a9fa88609e65930ce129a9603edb",
    ),
}

# (end_time, events_executed) of each corpus run: the tick of the last
# handler call, and the number of handler calls.
COUNTERS = {
    "n10-crash-mid": (70, 1359),
    "n10-rr-crash-zero": (107, 1632),
    "n31-crash-mid": (35, 13825),
    "n4-crash-zero": (55, 231),
    "n4-d2": (40, 404),
    "n4-d3": (63, 500),
    "n4-d5-rr": (75, 404),
    "n4-epochs": (69, 500),
    "n4-hold-gst": (85, 404),
    "n4-maxtime": (90, 918),
    "n4-maxtime-crash": (60, 118),
    "n4-split-160": (138, 990),
    "n4-split-804": (259, 994),
    "n4-t2-long-crash-zero": (569, 2715),
    "n5-slots-no-tx": (70, 630),
    "n7-crash-late-random": (164, 855),
    "n7-d1": (31, 1526),
    "n7-d1-gst-crash": (61, 1130),
    "n7-d5": (77, 1232),
    "n7-excl15-crash": (126, 1706),
    "n7-random-gst": (76, 1232),
    "n7-random0-gst": (73, 1232),
    "n7-random30-gst": (92, 1526),
    "n7-weighted": (53, 1232),
}

# Per split-view config: the anchors each node discards, and the anchors
# that ``retro_recheck`` commits over all nodes.
SPLIT_PATHS = {
    "n4-split-160": ([1, 1, 1, 1], 4),
    "n4-split-804": ([1, 0, 1, 1], 0),
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
