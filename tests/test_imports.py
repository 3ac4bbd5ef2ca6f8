"""Importing repdag runs no generated code.

Every command, check and worker process starts by importing the package, so
it must not pull in ``dataclasses`` (and with it ``inspect``, ``ast`` and
``dis``) or ``statistics`` (``fractions`` and ``decimal``). The import runs in
a fresh interpreter; what the interpreter had loaded before it (its site
hooks included) does not count. Timings are not asserted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = """
import json, sys
before = set(sys.modules)
import repdag.cli, repdag.harness, repdag.checks, repdag.metrics
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_the_package_loads_no_code_generators():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    added = set(json.loads(done.stdout))
    assert "repdag.simnet" in added
    assert not added & {"dataclasses", "inspect", "statistics"}
