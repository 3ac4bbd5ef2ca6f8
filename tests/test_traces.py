import json
from collections import Counter

import pytest

from repdag.checks import ordered_sequence
from repdag.traces import RECORD_KINDS, Tracer, header_line, parse, serialize

from .conftest import quick_run
from .test_golden import CORPUS, PERSISTED


def test_round_trip_is_bit_exact():
    for raw in [{"seed": 5, "stop": {"maxRound": 10}}, *(CORPUS[name][0] for name in PERSISTED)]:
        _, result = quick_run(**raw)
        for tracer in result.tracers:
            text = serialize(tracer.node, tracer.records)
            node, records = parse(text)
            assert node == tracer.node
            assert records == json.loads(json.dumps(tracer.records)), raw
            assert serialize(node, records) == text


def test_parsed_kinds_are_the_shared_strings():
    # The decoder gives each value its own string; parse swaps in one shared
    # object per kind.
    _, result = quick_run(seed=5, stop={"maxRound": 10})
    for tracer in result.tracers:
        _, records = parse(serialize(tracer.node, tracer.records))
        assert records
        for rec in records:
            assert any(rec["kind"] is kind for kind in RECORD_KINDS), rec


# Records that parse refuses, each after a valid record, with its message.
MALFORMED_RECORDS = {
    "unknown-kind": ({"at": 3, "kind": "vertex-teleported"}, "unknown record kinds: ['vertex-teleported']"),
    "missing-kind": ({"at": 3, "round": 4}, "a record is not an object with a hashable 'kind'"),
    "unhashable-kind": ({"at": 3, "kind": []}, "a record is not an object with a hashable 'kind'"),
    "not-an-object": ([3, "leader-timeout"], "a record is not an object with a hashable 'kind'"),
}
malformed_records = pytest.mark.parametrize(
    "record, message", list(MALFORMED_RECORDS.values()), ids=list(MALFORMED_RECORDS)
)


@malformed_records
def test_parse_messages_for_malformed_records(record, message):
    valid = {"at": 1, "kind": "leader-timeout", "round": 2}
    # Written line by line: serialize refuses a record that is not an object.
    text = "\n".join([header_line(1), json.dumps(valid), json.dumps(record)]) + "\n"
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_serialize_writes_one_line_per_record():
    records = [
        {"at": 1, "kind": "leader-timeout", "round": 2},
        {"at": 4, "kind": "schedule-switched", "epoch": 1, "initialRound": 6, "slots": [0, 1], "scores": {"0": 3}},
        {"at": 4, "kind": "anchor-committed", "round": 4, "leader": 0, "direct": True, "ordered": [[4, 0]]},
    ]
    lines = serialize(1, records).splitlines()
    assert lines == [header_line(1), *(json.dumps(rec, separators=(",", ":")) for rec in records)]
    assert serialize(1, []) == header_line(1) + "\n"


@pytest.mark.parametrize(
    "records",
    [
        [{"at": 1, "kind": "leader-timeout"}, [3, "leader-timeout"]],
        [{"at": 1, "kind": "leader-timeout"}, {"kind": "leader-timeout", "at": 2}],
        [{"at": 1, "kind": "leader-timeout", "nested": [{"at": 2}, {"at": 3}]}],
    ],
    ids=["not-an-object", "at-not-first", "list-of-objects"],
)
def test_serialize_refuses_records_it_cannot_split(records):
    with pytest.raises(ValueError, match="do not split"):
        serialize(1, records)


def test_header_is_versioned():
    header = json.loads(header_line(3))
    assert header == {"format": "repdag-trace", "version": 3, "node": 3}


def test_parse_rejects_foreign_text():
    with pytest.raises(ValueError):
        parse('{"something": "else"}\n')
    with pytest.raises(ValueError):
        parse("")


def test_records_are_time_ordered_per_node():
    _, result = quick_run(seed=8, stop={"maxRound": 16})
    for tracer in result.tracers:
        times = [r["at"] for r in tracer.records]
        assert times == sorted(times)


def test_ordered_lists_concatenate_to_the_commit_log():
    _, result = quick_run(seed=8, stop={"maxRound": 16})
    for node, tracer in zip(result.nodes, result.tracers):
        ordered = ordered_sequence(tracer.records)
        assert ordered, "the run ordered no vertex"
        assert ordered == list(node.commit.ordered)


def test_records_share_the_stored_vertex_ids():
    # A record names a vertex by the one id object the vertex holds, not a copy.
    _, result = quick_run(seed=8, stop={"maxRound": 16})
    counts = Counter()
    for node, tracer in zip(result.nodes, result.tracers):
        for rec in tracer.records:
            kind = rec["kind"]
            if kind in ("vertex-created", "vertex-delivered"):
                ids = [rec["id"]]
            elif kind == "anchor-committed":
                ids = rec["ordered"]
            else:
                continue
            for vid in ids:
                assert vid is node.dag.get(vid).id, (node.me, rec)
                counts[kind] += 1
    assert len(counts) == 3, counts


def test_tracer_accumulates_with_current_time():
    t = Tracer(2)
    t.now = 7
    t.emit("leader-timeout", round=4)
    assert t.records == [{"at": 7, "kind": "leader-timeout", "round": 4}]


def test_parse_accepts_every_emitted_kind_and_rejects_others():
    records = [{"at": 3, "kind": "leader-timeout", "round": 4}]
    assert parse(serialize(1, records)) == (1, records)
    with pytest.raises(ValueError, match="vertex-teleported"):
        parse(serialize(1, [{"at": 3, "kind": "vertex-teleported"}]))
    # No longer emitted: a trace written by an older build is refused by name.
    for retired in ("stale-anchor", "round-advanced", "vertex-ordered"):
        with pytest.raises(ValueError, match=retired):
            parse(serialize(1, [{"at": 3, "kind": retired, "round": 4}]))
    with pytest.raises(ValueError):
        parse(serialize(1, [[3, 1, "leader-timeout"]]))


def test_parse_requires_one_record_per_line():
    record = '{"at":1,"kind":"leader-timeout","round":2}'
    with pytest.raises(ValueError, match="2 records"):
        parse(header_line(0) + "\n" + record + "," + record + "\n")
    with pytest.raises(ValueError):
        parse(header_line(0) + "\n" + record + "\n\n")
