"""Smoke test: every experiment script under scripts/ runs on a tiny scenario,
and rejects bad arguments with exit code 2 and a message, not a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from .test_traces import TOO_DEEP, TOO_LONG_INT

ROOT = Path(__file__).resolve().parent.parent
# A config file argument: the test writes TINY_CONFIG there.
CONFIG = "<config>"
TINY_CONFIG = {"stakes": [1] * 4, "stop": {"maxRound": 20}}
TINY_ARGS = {
    "fault_tolerance.py": ["--n", "4", "--rounds", "20", "--seeds", "1"],
    "faultless_parity.py": ["--n", "4", "--rounds", "20", "--seeds", "1"],
    "leader_utilization.py": ["--n", "4", "--crashes", "1"],
    "peak_rss.py": ["--config", CONFIG],
}
BAD_ARGS = [
    ("fault_tolerance.py", ["--n", "1"]),
    ("fault_tolerance.py", ["--n", "4", "--crashes", "5"]),
    ("fault_tolerance.py", ["--rounds", "0"]),
    ("fault_tolerance.py", ["--n", "4", "--rounds", "20", "--seeds", "0"]),
    ("fault_tolerance.py", ["--delta", "0"]),
    ("faultless_parity.py", ["--n", "4", "--rounds", "20", "--seeds", "0"]),
    ("leader_utilization.py", ["--n", "1"]),
    ("peak_rss.py", ["--config", CONFIG, "--rounds", "0"]),
    ("peak_rss.py", ["--config", "no-such-config.json"]),
]
# Valid arguments whose runs have nothing to compare: more crashes than the
# fault bound commit nothing (no latency), and one round commits nothing at
# all (no faultless throughput to divide by).
EMPTY_RUN_ARGS = [
    ("fault_tolerance.py", ["--n", "4", "--crashes", "2", "--rounds", "10", "--seeds", "1"]),
    ("fault_tolerance.py", ["--n", "4", "--rounds", "1", "--seeds", "1"]),
]


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def run_script(name, args, config=None):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    args = [config if arg == CONFIG else arg for arg in args]
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(TINY_ARGS)


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_script_exits_zero(name, config):
    done = run_script(name, TINY_ARGS[name], config)
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize(
    "name,args", BAD_ARGS, ids=[f"{n.removesuffix('.py')}:{','.join(a)}" for n, a in BAD_ARGS]
)
def test_bad_arguments_exit_two(name, args, config):
    done = run_script(name, args, config)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr


@pytest.mark.parametrize(
    "text", [TOO_DEEP, '{"stakes":[1,1,1,1],"seed":' + TOO_LONG_INT + "}"], ids=["nested-too-deep", "over-long-integer"]
)
def test_peak_rss_refuses_json_the_decoder_cannot_hold(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    done = run_script("peak_rss.py", ["--config", str(path)])
    assert done.returncode == 2
    assert done.stderr.startswith("config error: not valid JSON:") and "Traceback" not in done.stderr
    assert done.stdout == ""


def test_fault_tolerance_takes_delta():
    args = ["--n", "4", "--rounds", "12", "--seeds", "1"]
    done = run_script("fault_tolerance.py", [*args, "--delta", "3"])
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.endswith(", Delta 3")
    # The same runs at the default timing read different numbers.
    assert rows != run_script("fault_tolerance.py", args).stdout.splitlines()[1:]


@pytest.mark.parametrize(
    "name,args", EMPTY_RUN_ARGS, ids=[f"{n.removesuffix('.py')}:{','.join(a)}" for n, a in EMPTY_RUN_ARGS]
)
def test_runs_without_commits_print_dashes(name, args):
    done = run_script(name, args)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert " -" in done.stdout


def test_peak_rss_measures_run_then_check(tmp_path):
    # The config's own stop is invalid, so only --rounds makes it runnable.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY_CONFIG, "stop": {"maxRound": 0}}))
    assert run_script("peak_rss.py", ["--config", str(path)]).returncode == 2
    done = run_script("peak_rss.py", ["--config", str(path), "--rounds", "20"])
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[0] == "command"
    assert [row.rsplit(None, 2)[0] for row in rows] == ["repdag run", "repdag check --all"]
    for row in rows:
        wall_s, rss_mb = map(float, row.split()[-2:])
        assert wall_s > 0 and rss_mb > 1, row
