#!/usr/bin/env python3
"""Peak memory and wall time of `repdag run` and then `repdag check --all`.

Each command runs in a child process of its own, on the given config (its
stop replaced by `maxRound` N with --rounds N), with the traces in a
temporary directory. Prints each child's wall time and peak RSS, its
`ru_maxrss`. On Linux a child's `ru_maxrss` also counts the resident set of
the process that started it, so this script imports nothing of repdag and
stays below the size of any child it measures.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path


def count(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def measure(*argv: str) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of ``repdag ARGV`` in a child."""
    start = time.perf_counter()
    # Verdicts and metrics go to /dev/null; errors still reach stderr.
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, "-m", "repdag.cli", *argv],
        os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", required=True)
    ap.add_argument("--rounds", type=count)
    args = ap.parse_args()

    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, ValueError) as exc:
        print(f"config error: not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(raw, dict):
        print("config error: top level must be a JSON object", file=sys.stderr)
        return 2
    if args.rounds is not None:
        raw["stop"] = {"maxRound": args.rounds}

    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "run"
        config.write_text(json.dumps(raw))
        commands = {
            "repdag run": ["run", "--config", str(config), "--out", str(out)],
            "repdag check --all": ["check", "--all", "--trace", str(out)],
        }
        print(f"{'command':<19} {'wall s':>7} {'peak RSS MB':>12}")
        for name, command in commands.items():
            code, wall_s, rss_mb = measure(*command)
            print(f"{name:<19} {wall_s:>7.2f} {rss_mb:>12.1f}")
            if code != 0:
                print(f"{name} exited with {code}", file=sys.stderr)
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
