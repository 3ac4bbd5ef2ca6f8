"""Smoke test: every experiment script under scripts/ runs on a tiny scenario."""

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


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(TINY_ARGS)


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_script_exits_zero(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *TINY_ARGS[name]],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
