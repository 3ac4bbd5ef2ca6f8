"""Smoke test: every experiment script under scripts/ runs on a tiny scenario,
and rejects bad arguments with exit code 2 and a message, not a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TINY_ARGS = {
    "fault_tolerance.py": ["--n", "4", "--rounds", "20", "--seeds", "1"],
    "faultless_parity.py": ["--n", "4", "--rounds", "20", "--seeds", "1"],
    "leader_utilization.py": ["--n", "4", "--crashes", "1"],
}
BAD_ARGS = [
    ("fault_tolerance.py", ["--n", "1"]),
    ("fault_tolerance.py", ["--n", "4", "--crashes", "5"]),
    ("fault_tolerance.py", ["--rounds", "0"]),
    ("fault_tolerance.py", ["--n", "4", "--rounds", "20", "--seeds", "0"]),
    ("fault_tolerance.py", ["--delta", "0"]),
    ("faultless_parity.py", ["--n", "4", "--rounds", "20", "--seeds", "0"]),
    ("leader_utilization.py", ["--n", "1"]),
]
# Valid arguments whose runs have nothing to compare: more crashes than the
# fault bound commit nothing (no latency), and one round commits nothing at
# all (no faultless throughput to divide by).
EMPTY_RUN_ARGS = [
    ("fault_tolerance.py", ["--n", "4", "--crashes", "2", "--rounds", "10", "--seeds", "1"]),
    ("fault_tolerance.py", ["--n", "4", "--rounds", "1", "--seeds", "1"]),
]


def run_script(name, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
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
def test_script_exits_zero(name):
    done = run_script(name, TINY_ARGS[name])
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize(
    "name,args", BAD_ARGS, ids=[f"{n.removesuffix('.py')}:{','.join(a)}" for n, a in BAD_ARGS]
)
def test_bad_arguments_exit_two(name, args):
    done = run_script(name, args)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr


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
