import pytest

from repdag.checks import ordered_sequence
from repdag.traces import Tracer, header_line, parse, serialize

from .conftest import quick_run
from .test_golden import CORPUS, PERSISTED


def test_round_trip_is_bit_exact():
    for raw in [{"seed": 5, "stop": {"maxRound": 10}}, *(CORPUS[name][0] for name in PERSISTED)]:
        _, result = quick_run(**raw)
        for tracer in result.tracers:
            text = serialize(tracer.node, tracer.records)
            node, records = parse(text)
            assert node == tracer.node
            assert records == tracer.records, raw
            assert serialize(node, records) == text


def test_header_is_versioned():
    import json

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
        assert ordered == [list(vid) for _, vid, _ in node.commit.commit_log]


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
