import json

import pytest

from repdag.cli import main
from repdag.harness import compare, load_run, run_scenario
from repdag.config import parse_config
from repdag.traces import _BATCH, header_line

from .test_traces import TOO_DEEP, TOO_DEEP_ERROR, TOO_LONG_ERROR, TOO_LONG_INT, malformed_records


def write_config(tmp_path, name="scenario.json", **extra):
    raw = {"stakes": [1, 1, 1, 1], "stop": {"maxRound": 16}, "Delta": 2, "seed": 3}
    raw.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_run_then_check_ok(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "metrics.json").exists()
    assert sorted(p.name for p in out_dir.glob("node-*.jsonl")) == [
        "node-00.jsonl",
        "node-01.jsonl",
        "node-02.jsonl",
        "node-03.jsonl",
    ]
    assert main(["check", "--trace", str(out_dir), "--all"]) == 0
    out = capsys.readouterr().out
    assert "total-order: ok" in out


def test_check_flags_corrupted_trace(tmp_path):
    out_dir = persisted_run(tmp_path)
    _edit_first_record(out_dir, lambda rec: rec["ordered"].reverse())
    assert main(["check", "--trace", str(out_dir), "--total-order"]) == 1


def test_bad_config_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"stakes": [1, 1, 1, 1], "bogus": 1}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


def test_compare_identical_configs_zero_deltas(tmp_path):
    cfg = parse_config({"stakes": [1, 1, 1, 1], "stop": {"maxRound": 14}})
    comparison = compare(cfg, cfg, seeds=[0, 1])
    for ma, mb in zip(comparison.metrics_a, comparison.metrics_b):
        assert ma == mb


def test_compare_cli_writes_csv(tmp_path, capsys):
    a = write_config(tmp_path, "a.json")
    b = write_config(tmp_path, "b.json", mode="round-robin")
    out = tmp_path / "cmp"
    assert main(["compare", "--a", str(a), "--b", str(b), "--seeds", "2", "--out", str(out)]) == 0
    text = (out / "comparison.csv").read_text()
    assert text.splitlines()[0].startswith("seed,throughputA")
    assert len(text.splitlines()) == 3


def test_sweep_cli(tmp_path):
    out = tmp_path / "sweep"
    assert (
        main(
            ["sweep", "--n", "4", "--faults", "0,1", "--T", "10", "--seeds", "1", "--out", str(out)]
        )
        == 0
    )
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("n,faults,T,seed,mode")
    assert len(rows) == 3  # header + (faults 0, faults 1)


def test_sweep_grid_points_derive_slots_and_batch_from_n(tmp_path, capsys):
    # The base's L and batchSize fit n=4 only; each grid point derives its own.
    args = ["sweep", "--n", "4,7", "--faults", "0", "--T", "10", "--seeds", "1"]
    plain = write_config(tmp_path, "plain.json")
    assert main([*args, "--config", str(plain)]) == 0
    expected = capsys.readouterr().out
    sized = write_config(tmp_path, "sized.json", L=2, batchSize=3)
    assert main([*args, "--config", str(sized)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "args",
    [
        ["compare", "--seeds", "0", "--out", "d"],
        ["sweep", "--n", "4,x"],
        ["sweep", "--n", "0"],
        ["sweep", "--seeds", "0"],
        ["compare", "--seeds", "-2"],
    ],
)
def test_bad_count_argument_exits_two(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    if args[0] == "compare":
        args = [*args, "--a", str(write_config(tmp_path, "a.json")), "--b", str(write_config(tmp_path, "b.json"))]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "expected an integer" in capsys.readouterr().err


def test_one_validator_sweep_exits_two(tmp_path, capsys, monkeypatch):
    # A lone validator would run every round at tick 0 and never stop on time.
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--n", "1", "--faults", "0", "--seeds", "1"]) == 2
    assert "config error: stakes" in capsys.readouterr().err


@pytest.mark.parametrize("stakes", [[], [1]])
def test_check_run_without_a_committee_exits_two(tmp_path, capsys, stakes):
    # One empty trace per listed validator passes the trace-set check, so
    # only the manifest's config can refuse the run.
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    config = {**parse_config({"stakes": [1, 1, 1, 1]}).to_json_dict(), "stakes": stakes}
    (out_dir / "manifest.json").write_text(json.dumps({"config": config}))
    for v in range(len(stakes)):
        (out_dir / f"node-{v:02d}.jsonl").write_text(header_line(v) + "\n")
    assert main(["check", "--trace", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "manifest.json" in err and "stakes" in err


def test_scenario_files_round_trip(tmp_path):
    cfg_path = write_config(tmp_path)
    from repdag.config import load_config

    cfg = load_config(cfg_path)
    metrics, run_dir = run_scenario(cfg, tmp_path / "runout")
    manifest, records = load_run(run_dir)
    assert manifest["config"] == cfg.to_json_dict()
    assert set(records) == {0, 1, 2, 3}


def persisted_run(tmp_path):
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out_dir)]) == 0
    return out_dir


CHECKER_NAMES = [
    "total-order",
    "schedule-agreement",
    "leader-utilization",
    "rb-validity",
    "rb-agreement",
    "delivery-bound",
]


def verdict_names(out):
    return [line.split(":")[0] for line in out.splitlines()]


def test_check_all_runs_the_delivery_bound(tmp_path, capsys):
    # Each verdict line names its checker, so the two reliable-broadcast
    # checkers print distinct lines.
    out_dir = persisted_run(tmp_path)
    capsys.readouterr()
    assert main(["check", "--trace", str(out_dir), "--all"]) == 0
    out = capsys.readouterr().out
    assert "delivery-bound: ok" in out
    assert "rb-validity: ok" in out and "rb-agreement: ok" in out
    assert verdict_names(out) == CHECKER_NAMES
    assert main(["check", "--trace", str(out_dir)]) == 0
    assert verdict_names(capsys.readouterr().out) == CHECKER_NAMES


def test_check_reports_a_delivery_of_an_uncreated_vertex(tmp_path, capsys):
    out_dir = persisted_run(tmp_path)
    with (out_dir / "node-01.jsonl").open("a") as trace:
        trace.write('{"at":5,"kind":"vertex-delivered","id":[40,2]}\n')
    capsys.readouterr()
    assert main(["check", "--trace", str(out_dir), "--all"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert "rb-agreement: violation" in out
    assert "delivery-bound: violation at 1 (node, vertex) deliveries" in out
    assert verdict_names(out) == CHECKER_NAMES


def test_check_reads_defaults_for_keys_the_manifest_omits(tmp_path, capsys):
    out_dir = persisted_run(tmp_path)
    capsys.readouterr()
    assert main(["check", "--trace", str(out_dir), "--all"]) == 0
    full = capsys.readouterr().out
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    # The config of persisted_run, but for its seed, which no checker reads.
    manifest["config"] = {"stakes": [1, 1, 1, 1], "stop": {"maxRound": 16}}
    manifest_path.write_text(json.dumps(manifest))
    assert main(["check", "--trace", str(out_dir), "--all"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (full, "")


def test_check_bad_header_exits_two(tmp_path, capsys):
    out_dir = persisted_run(tmp_path)
    trace = out_dir / "node-02.jsonl"
    lines = trace.read_text().splitlines()
    foreign = {"format": "something-else", "version": 3, "node": 2}
    # Version 1 records still named their node; version 2 traces still held
    # vertex-ordered and round-advanced records.
    version_1 = {"format": "repdag-trace", "version": 1, "node": 2}
    version_2 = {"format": "repdag-trace", "version": 2, "node": 2}
    for header in (foreign, version_1, version_2):
        lines[0] = json.dumps(header)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", "--trace", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        assert "node-02.jsonl" in err and "header" in err
        assert out == ""


def test_run_into_traces_of_a_larger_committee_exits_two(tmp_path, capsys):
    out_dir = persisted_run(tmp_path)
    (out_dir / "node-04.jsonl").write_text((out_dir / "node-00.jsonl").read_text())
    capsys.readouterr()
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "node-04.jsonl" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("target", ["node-01.jsonl", "manifest.json", "run --config", "compare --a"])
def test_undecodable_input_exits_two(tmp_path, capsys, target):
    out_dir = persisted_run(tmp_path)
    bad = write_config(tmp_path, "bad.json")
    check = ["check", "--trace", str(out_dir)]
    argv, path = {
        "node-01.jsonl": (check, out_dir / "node-01.jsonl"),
        "manifest.json": (check, out_dir / "manifest.json"),
        "run --config": (["run", "--config", str(bad), "--out", str(tmp_path / "o")], bad),
        "compare --a": (["compare", "--a", str(bad), "--b", str(write_config(tmp_path)), "--seeds", "1"], bad),
    }[target]
    path.write_bytes(b"\xff" + path.read_bytes())
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("io error:") and out == ""


@pytest.mark.parametrize(
    "text, decoder_error",
    [(TOO_DEEP, TOO_DEEP_ERROR), ('{"stakes":[1,1,1,1],"seed":' + TOO_LONG_INT + "}", TOO_LONG_ERROR)],
    ids=["nested-too-deep", "over-long-integer"],
)
@pytest.mark.parametrize("target", ["node-01.jsonl header", "manifest.json", "run --config", "compare --a"])
def test_json_the_decoder_cannot_hold_exits_two(tmp_path, capsys, target, text, decoder_error):
    out_dir = persisted_run(tmp_path)
    bad = tmp_path / "bad.json"
    check = ["check", "--trace", str(out_dir)]
    trace, manifest = out_dir / "node-01.jsonl", out_dir / "manifest.json"
    config_error = f"config error: <file>: not valid JSON: {decoder_error}"
    argv, path, error = {
        "node-01.jsonl header": (check, trace, f"trace error: {trace}: cannot decode JSON: {decoder_error}"),
        "manifest.json": (check, manifest, f"trace error: {manifest}: cannot decode JSON: {decoder_error}"),
        "run --config": (["run", "--config", str(bad), "--out", str(tmp_path / "o")], bad, config_error),
        "compare --a": (
            ["compare", "--a", str(bad), "--b", str(write_config(tmp_path)), "--seeds", "1"], bad, config_error
        ),
    }[target]
    if path == trace:
        # The records stay; only the header line is replaced.
        text += "\n" + trace.read_text().split("\n", 1)[1]
    path.write_text(text)
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == error + "\n" and out == ""


def test_check_without_traces_exits_two(tmp_path, capsys):
    out_dir = persisted_run(tmp_path)
    for trace in out_dir.glob("node-*.jsonl"):
        trace.unlink()
    capsys.readouterr()
    assert main(["check", "--trace", str(out_dir), "--all"]) == 2
    captured = capsys.readouterr()
    assert "ok" not in captured.out
    assert "one trace per validator" in captured.err


def test_check_missing_one_validator_exits_two(tmp_path, capsys):
    out_dir = persisted_run(tmp_path)
    (out_dir / "node-03.jsonl").unlink()
    assert main(["check", "--trace", str(out_dir)]) == 2
    assert "node-03.jsonl" in capsys.readouterr().err


def test_check_header_node_must_match_file_name(tmp_path, capsys):
    out_dir = persisted_run(tmp_path)
    (out_dir / "node-01.jsonl").write_text((out_dir / "node-00.jsonl").read_text())
    assert main(["check", "--trace", str(out_dir)]) == 2
    assert "header names node 0" in capsys.readouterr().err


@malformed_records
def test_check_malformed_record_exits_two(tmp_path, capsys, line, message):
    out_dir = persisted_run(tmp_path)
    trace = out_dir / "node-01.jsonl"
    trace.write_text(trace.read_text() + line + "\n")
    capsys.readouterr()
    assert main(["check", "--trace", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert err == f"trace error: {trace}: {message}\n"
    assert out == ""


@malformed_records
def test_check_malformed_record_past_the_first_batch_exits_two(tmp_path, capsys, line, message):
    out_dir = persisted_run(tmp_path)
    trace = out_dir / "node-01.jsonl"
    padding = json.dumps({"at": 0, "kind": "leader-timeout", "round": 1}) + "\n"
    trace.write_text(trace.read_text() + padding * _BATCH + line + "\n")
    capsys.readouterr()
    assert main(["check", "--trace", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert err == f"trace error: {trace}: {message}\n"
    assert out == ""


def _edit_first_record(out_dir, edit, kind="anchor-committed"):
    trace = out_dir / "node-01.jsonl"
    lines = trace.read_text().splitlines()
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec.get("kind") == kind:
            edit(rec)
            lines[i] = json.dumps(rec, separators=(",", ":"))
            break
    else:
        raise AssertionError(f"the run emitted no {kind} record")
    trace.write_text("\n".join(lines) + "\n")


def test_check_record_missing_a_field_exits_two(tmp_path, capsys):
    out_dir = persisted_run(tmp_path)
    _edit_first_record(out_dir, lambda rec: rec.pop("ordered"))
    capsys.readouterr()
    assert main(["check", "--trace", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error:") and "ordered" in err


def test_check_record_with_a_mistyped_field_exits_two(tmp_path, capsys):
    out_dir = persisted_run(tmp_path)
    _edit_first_record(out_dir, lambda rec: rec.update(ordered=None))
    capsys.readouterr()
    assert main(["check", "--trace", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("trace error:") and "TypeError" in err
    # No verdict is printed for a run that turned out to be unreadable.
    assert out == ""


@pytest.mark.parametrize(
    "kind, flag",
    [
        ("vertex-delivered", "--all"),
        ("vertex-created", "--all"),
        ("vertex-created", "--utilization"),
        ("anchor-committed", "--all"),
    ],
)
@pytest.mark.parametrize("vid", [[1], [1, 2, 3]])
def test_check_vertex_id_that_is_not_a_pair_exits_two(tmp_path, capsys, kind, flag, vid):
    # A bad id is bad input, not a delivery of a vertex nobody created nor a
    # break in the total order. The first vertex-created record is a genesis
    # vertex, made before GST; an anchor-committed record has its first
    # ordered entry replaced.

    def edit(rec):
        if kind == "anchor-committed":
            rec["ordered"][0] = vid
        else:
            rec["id"] = vid

    out_dir = persisted_run(tmp_path)
    _edit_first_record(out_dir, edit, kind)
    capsys.readouterr()
    assert main(["check", flag, "--trace", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("trace error:") and "ValueError" in err
    assert out == ""
