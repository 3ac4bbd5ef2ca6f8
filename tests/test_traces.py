import io
import json
from collections import Counter

import pytest

from repdag.checks import ordered_sequence
from repdag.config import parse_config
from repdag.harness import load_run, run_scenario, write_run
from repdag.simnet import run
from repdag.traces import _BATCH, RECORD_KINDS, TraceInvalid, Tracer, header_line, parse, serialize

from .conftest import quick_run
from .test_dag import source_masks
from .test_golden import CORPUS, PERSISTED

# JSON the decoder cannot hold, with the decoder's message: nesting past its
# recursion limit, and an integer past int's default limit of 4300 digits.
TOO_DEEP = "[" * 200_000 + "]" * 200_000
TOO_DEEP_ERROR = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
TOO_LONG_INT = "1" * 5000
TOO_LONG_ERROR = (
    "Exceeds the limit (4300 digits) for integer string conversion: "
    "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"
)


def test_round_trip_is_bit_exact():
    for raw in [{"seed": 5, "stop": {"maxRound": 10}}, *(CORPUS[name][0] for name in PERSISTED)]:
        _, result = quick_run(**raw)
        for tracer in result.tracers:
            text = serialize(tracer.node, tracer.records)
            node, records = parse(io.StringIO(text))
            assert node == tracer.node
            assert records == tracer.records, raw
            assert serialize(node, records) == text
            # One id type: a plain tuple in memory and once parsed.
            in_memory = [vid for rec in tracer.records for vid in vertex_ids(rec)]
            assert in_memory and all(type(vid) is tuple for vid in in_memory), raw
            parsed = [vid for rec in records for vid in vertex_ids(rec)]
            assert parsed == in_memory and list(map(type, parsed)) == list(map(type, in_memory)), raw


def test_parsed_kinds_are_the_shared_strings():
    # The decoder gives each value its own string; parse swaps in one shared
    # object per kind.
    _, result = quick_run(seed=5, stop={"maxRound": 10})
    for tracer in result.tracers:
        _, records = parse(io.StringIO(serialize(tracer.node, tracer.records)))
        assert records
        for rec in records:
            assert any(rec["kind"] is kind for kind in RECORD_KINDS), rec


# Record lines that parse refuses, each after a valid record, with its message.
MALFORMED_RECORDS = {
    "unknown-kind": (json.dumps({"at": 3, "kind": "vertex-teleported"}), "unknown record kinds: ['vertex-teleported']"),
    "missing-kind": (json.dumps({"at": 3, "round": 4}), "a record is not an object with a hashable 'kind'"),
    "unhashable-kind": (json.dumps({"at": 3, "kind": []}), "a record is not an object with a hashable 'kind'"),
    "not-an-object": (json.dumps([3, "leader-timeout"]), "a record is not an object with a hashable 'kind'"),
    "id-not-two-ints": (
        json.dumps({"at": 3, "kind": "vertex-created", "id": ["1", 2], "txCount": 1}),
        "a record lacks a vertex id or holds a malformed one: TypeError(\"vertex id ['1', 2] is not two integers\")",
    ),
    "ordered-id-not-integral": (
        json.dumps(
            {"at": 3, "kind": "anchor-committed", "round": 2, "leader": 0, "direct": True, "ordered": [[1.5, 0]]}
        ),
        "a record lacks a vertex id or holds a malformed one: TypeError('vertex id [1.5, 0] is not two integers')",
    ),
    "no-ordered-list": (
        json.dumps({"at": 3, "kind": "anchor-committed", "round": 2, "leader": 0, "direct": True}),
        "a record lacks a vertex id or holds a malformed one: KeyError('ordered')",
    ),
    "nested-too-deep": (TOO_DEEP, f"cannot decode JSON: {TOO_DEEP_ERROR}"),
    "over-long-integer": (
        '{"at":' + TOO_LONG_INT + ',"kind":"leader-timeout","round":2}',
        f"cannot decode JSON: {TOO_LONG_ERROR}",
    ),
}
malformed_records = pytest.mark.parametrize(
    "line, message", list(MALFORMED_RECORDS.values()), ids=list(MALFORMED_RECORDS)
)


@malformed_records
def test_parse_messages_for_malformed_records(line, message):
    valid = [{"at": 1, "kind": "leader-timeout", "round": 2}, {"at": 1, "kind": "vertex-delivered", "id": [1, 0]}]
    # Written line by line: serialize refuses a record that is not an object.
    text = "\n".join([header_line(1), *map(json.dumps, valid), line]) + "\n"
    with pytest.raises(ValueError) as exc:
        parse(io.StringIO(text))
    assert str(exc.value) == message


@pytest.mark.parametrize("first", [[1, 0], [1.0, 0], [True, 0]])
def test_parse_reads_id_components_by_value(first):
    # 1.0 and true equal 1, so they name vertex (1, 0) in any record order.
    ids = [first, [1, 0], [1.0, 0], [True, 0]]
    records = [{"at": 1, "kind": "vertex-delivered", "id": vid} for vid in ids]
    records.append({"at": 2, "kind": "anchor-committed", "round": 2, "leader": 0, "direct": False, "ordered": ids})
    _, parsed = parse(io.StringIO("\n".join([header_line(1), *map(json.dumps, records)]) + "\n"))
    vid = parsed[0]["id"]
    assert vid == (1, 0) and all(type(x) is int for x in vid)
    assert all(rec["id"] is vid for rec in parsed[:-1])
    assert all(entry is vid for entry in parsed[-1]["ordered"])


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
    with pytest.raises(ValueError) as exc:
        parse(io.StringIO('{"something": "else"}\n'))
    assert str(exc.value) == """unrecognized trace header: '{"something": "else"}'"""
    with pytest.raises(ValueError) as exc:
        parse(io.StringIO(""))
    assert str(exc.value) == "empty trace file"


def test_records_are_time_ordered_per_node():
    _, result = quick_run(seed=8, stop={"maxRound": 16})
    for tracer in result.tracers:
        times = [r["at"] for r in tracer.records]
        assert times == sorted(times)


def test_ordered_lists_concatenate_to_the_commit_log():
    _, result = quick_run(seed=8, stop={"maxRound": 16})
    for node, tracer in zip(result.nodes, result.tracers):
        # The lists are the node's only copy of the log; its one in-memory
        # index, the per-round ordered sources, must hold the same vertices.
        ordered = ordered_sequence(tracer.records)
        assert ordered, "the run ordered no vertex"
        assert len(set(ordered)) == len(ordered)
        assert node.commit.ordered_sources == source_masks(ordered)


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


def test_loaded_records_share_one_id_per_vertex(tmp_path):
    # Every record that names a vertex, at any node, holds the same tuple.
    cfg = parse_config({"stakes": [1] * 5, "stop": {"maxRound": 12}, "Delta": 2, "seed": 4})
    _, run_dir = run_scenario(cfg, tmp_path / "run")
    _, records = load_run(run_dir)
    shared = {}
    holders = Counter()
    for node, recs in records.items():
        for rec in recs:
            for vid in vertex_ids(rec):
                assert type(vid) is tuple, rec
                assert shared.setdefault(vid, vid) is vid, (node, rec)
                holders[vid] += 1
    assert len(shared) > cfg.n and min(holders.values()) > cfg.n, holders


def vertex_ids(rec):
    """The vertex ids a record names."""
    if rec["kind"] in ("vertex-created", "vertex-delivered"):
        return [rec["id"]]
    return rec["ordered"] if rec["kind"] == "anchor-committed" else []


def whole_text_parse(text):
    """A trace's node and records as one decoder call over all its record lines reads them."""
    header, *lines = text.splitlines()
    records = json.loads("[" + ",".join(lines) + "]")
    for rec in records:
        if "id" in rec:
            rec["id"] = tuple(rec["id"])
        if "ordered" in rec:
            rec["ordered"] = list(map(tuple, rec["ordered"]))
    return json.loads(header)["node"], records


@pytest.mark.filterwarnings("ignore:fault plan crashes")
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_batched_load_matches_a_whole_text_parse(name, tmp_path):
    # One id per vertex across nodes, and across batches: most traces span several.
    run_dir = write_run(run(parse_config(CORPUS[name][0])), tmp_path)
    _, records = load_run(run_dir)
    shared = {}
    for node, recs in records.items():
        assert (node, recs) == whole_text_parse((run_dir / f"node-{node:02d}.jsonl").read_text())
        for rec in recs:
            for vid in vertex_ids(rec):
                assert shared.setdefault(vid, vid) is vid, (node, rec)


def delivered(count):
    return [{"at": i, "kind": "vertex-delivered", "id": [i // 4, i % 4]} for i in range(count)]


@pytest.mark.parametrize("count", [0, 1, _BATCH - 1, _BATCH, 2 * _BATCH, 2 * _BATCH + 1])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_parse_reads_any_record_count_and_line_ending(count, newline):
    records = delivered(count)
    text = serialize(2, records).replace("\n", newline)
    assert parse(io.StringIO(text)) == (2, [{**rec, "id": tuple(rec["id"])} for rec in records])
    # A last line without its newline reads the same.
    assert parse(io.StringIO(text.removesuffix(newline))) == parse(io.StringIO(text))


def test_parsed_ids_are_shared_across_batches():
    records = delivered(_BATCH) * 2
    _, parsed = parse(io.StringIO(serialize(2, records)))
    assert all(a["id"] is b["id"] for a, b in zip(parsed[:_BATCH], parsed[_BATCH:]))


# Record lines that parse refuses in the second batch, with its message: five
# valid lines precede each in the batch and three follow it.
SECOND_BATCH_FAULTS = {
    "bad-id": (
        '{"at":3,"kind":"vertex-delivered","id":[1]}',
        "a record lacks a vertex id or holds a malformed one: "
        "ValueError('not enough values to unpack (expected 2, got 1)')",
    ),
    "unknown-kind": ('{"at":3,"kind":"vertex-teleported"}', "unknown record kinds: ['vertex-teleported']"),
    "two-records-in-a-line": (
        '{"at":3,"kind":"leader-timeout","round":2},{"at":3,"kind":"leader-timeout","round":2}',
        "9 record lines hold 10 records",
    ),
    "nested-too-deep": (TOO_DEEP, f"cannot decode JSON: {TOO_DEEP_ERROR}"),
    "over-long-integer": (
        '{"at":3,"kind":"vertex-delivered","id":[' + TOO_LONG_INT + ",0]}",
        f"cannot decode JSON: {TOO_LONG_ERROR}",
    ),
}


@pytest.mark.parametrize("line, message", list(SECOND_BATCH_FAULTS.values()), ids=list(SECOND_BATCH_FAULTS))
def test_parse_refuses_a_bad_line_past_the_first_batch(line, message):
    lines = serialize(2, delivered(_BATCH + 8)).splitlines()
    lines.insert(1 + _BATCH + 5, line)
    with pytest.raises(TraceInvalid) as exc:
        parse(io.StringIO("\n".join(lines) + "\n"))
    assert str(exc.value) == message


def test_a_line_separator_inside_a_string_does_not_split_a_record():
    # Only newlines end a line; JSON strings may hold U+2028, U+2029 and U+0085 raw.
    record = {"at": 1, "kind": "leader-timeout", "round": 2, "note": "a\u2028b\u2029c\x85d"}
    text = header_line(1) + "\n" + json.dumps(record, ensure_ascii=False) + "\n"
    assert parse(io.StringIO(text)) == (1, [record])


def test_tracer_accumulates_with_current_time():
    t = Tracer(2)
    t.now = 7
    t.emit("leader-timeout", round=4)
    assert t.records == [{"at": 7, "kind": "leader-timeout", "round": 4}]


def test_parse_accepts_every_emitted_kind_and_rejects_others():
    records = [{"at": 3, "kind": "leader-timeout", "round": 4}]
    assert parse(io.StringIO(serialize(1, records))) == (1, records)
    with pytest.raises(ValueError, match="vertex-teleported"):
        parse(io.StringIO(serialize(1, [{"at": 3, "kind": "vertex-teleported"}])))
    # No longer emitted: a trace written by an older build is refused by name.
    for retired in ("stale-anchor", "round-advanced", "vertex-ordered"):
        with pytest.raises(ValueError, match=retired):
            parse(io.StringIO(serialize(1, [{"at": 3, "kind": retired, "round": 4}])))
    with pytest.raises(ValueError):
        parse(io.StringIO(serialize(1, [[3, 1, "leader-timeout"]])))


def test_parse_requires_one_record_per_line():
    record = '{"at":1,"kind":"leader-timeout","round":2}'
    with pytest.raises(ValueError, match="2 records"):
        parse(io.StringIO(header_line(0) + "\n" + record + "," + record + "\n"))
    with pytest.raises(ValueError):
        parse(io.StringIO(header_line(0) + "\n" + record + "\n\n"))
