"""Scenario configuration: parsing, validation, canonical serialization.

Config files are JSON with exactly the documented keys; unknown keys are
rejected so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

MODES = ("hammerhead", "round-robin")


class ConfigInvalid(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class SimConfig:
    stakes: tuple[int, ...]
    mode: str = "hammerhead"
    commits_per_epoch: int = 10
    exclusion_fraction: float = 0.33
    slot_length: int = 0  # 0 means "committee size", resolved at parse time
    gst: int = 0
    delta: int = 2
    leader_timeout: int = 4
    pre_gst_policy: str = "hold"
    seed: int = 0
    fault_plan: tuple[tuple[int, int], ...] = ()
    max_round: int | None = 60
    max_time: int | None = None
    tx_rate_per_node: int = 2
    batch_size: int = 0  # 0 means "n * txRatePerNode", resolved at parse time

    @property
    def n(self) -> int:
        return len(self.stakes)

    @property
    def switch_span(self) -> int | None:
        """Rounds an epoch lasts before a switch; the baseline never switches."""
        return None if self.mode == "round-robin" else self.commits_per_epoch

    def with_seed(self, seed: int) -> "SimConfig":
        return replace(self, seed=seed)

    def to_json_dict(self) -> dict[str, Any]:
        """Canonical wire form, same keys a config file uses."""
        stop: dict[str, int] = {}
        if self.max_round is not None:
            stop["maxRound"] = self.max_round
        if self.max_time is not None:
            stop["maxTime"] = self.max_time
        return {
            "stakes": list(self.stakes),
            "mode": self.mode,
            "T": self.commits_per_epoch,
            "exclusionFraction": self.exclusion_fraction,
            "L": self.slot_length,
            "GST": self.gst,
            "Delta": self.delta,
            "leaderTimeout": self.leader_timeout,
            "preGstPolicy": self.pre_gst_policy,
            "seed": self.seed,
            "faultPlan": [list(entry) for entry in self.fault_plan],
            "stop": stop,
            "txRatePerNode": self.tx_rate_per_node,
            "batchSize": self.batch_size,
        }


# The wire form names every key a config file may use, so parsing accepts
# exactly what ``to_json_dict`` writes.
_KNOWN_KEYS = frozenset(SimConfig(stakes=(1,)).to_json_dict())


def _require_int(raw: dict, key: str, default: int, minimum: int) -> int:
    value = raw.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigInvalid(key, f"expected an integer >= {minimum}, got {value!r}")
    return value


def parse_config(raw: dict[str, Any]) -> SimConfig:
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigInvalid(sorted(unknown)[0], "unknown config key")

    stakes = raw.get("stakes")
    if not isinstance(stakes, list) or not stakes:
        raise ConfigInvalid("stakes", "expected a non-empty list of positive integers")
    for s in stakes:
        if not isinstance(s, int) or isinstance(s, bool) or s <= 0:
            raise ConfigInvalid("stakes", f"stake entries must be positive integers, got {s!r}")
    n = len(stakes)
    if n < 2:
        # A lone validator's own copy lands at once, so every round would
        # run at tick 0 and the run would never reach a time horizon.
        raise ConfigInvalid("stakes", "expected at least two validators")
    f = (n - 1) // 3

    mode = raw.get("mode", "hammerhead")
    if mode not in MODES:
        raise ConfigInvalid("mode", f"expected one of {MODES}, got {mode!r}")

    commits_per_epoch = _require_int(raw, "T", 10, 1)
    delta = _require_int(raw, "Delta", 2, 1)
    gst = _require_int(raw, "GST", 0, 0)
    leader_timeout = _require_int(raw, "leaderTimeout", 2 * delta, 1)
    slot_length = _require_int(raw, "L", n, 1)
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigInvalid("seed", f"expected an integer, got {seed!r}")
    tx_rate = _require_int(raw, "txRatePerNode", 2, 0)
    batch_size = _require_int(raw, "batchSize", max(1, n * tx_rate), 1)

    fraction = raw.get("exclusionFraction", 0.33)
    if not isinstance(fraction, (int, float)) or isinstance(fraction, bool) or not (0 < fraction < 1):
        raise ConfigInvalid("exclusionFraction", f"expected a ratio in (0, 1), got {fraction!r}")

    policy = raw.get("preGstPolicy", "hold")
    if not isinstance(policy, str) or not (
        policy == "hold" or (policy.startswith("random:") and policy.split(":", 1)[1].isdecimal())
    ):
        raise ConfigInvalid("preGstPolicy", f"expected 'hold' or 'random:<maxTicks>', got {policy!r}")

    plan_raw = raw.get("faultPlan", [])
    if not isinstance(plan_raw, list):
        raise ConfigInvalid("faultPlan", "expected a list of [validator, crashAt] pairs")
    plan: list[tuple[int, int]] = []
    seen_validators: set[int] = set()
    for entry in plan_raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        ):
            raise ConfigInvalid("faultPlan", f"expected [validator, crashAt] pairs, got {entry!r}")
        validator, crash_at = entry
        if not 0 <= validator < n:
            raise ConfigInvalid("faultPlan", f"validator {validator} out of range for n={n}")
        if validator in seen_validators:
            raise ConfigInvalid("faultPlan", f"validator {validator} listed twice")
        if crash_at < 0:
            raise ConfigInvalid("faultPlan", f"crashAt must be >= 0, got {crash_at}")
        seen_validators.add(validator)
        plan.append((validator, crash_at))
    crashed_stake = sum(stakes[v] for v, _ in plan)
    if crashed_stake > (sum(stakes) - 1) // 3:
        warnings.warn(
            f"fault plan crashes {crashed_stake} stake, above the tolerated bound; "
            "property checks are not meaningful for this run",
            stacklevel=2,
        )

    stop = raw.get("stop", {"maxRound": 60})
    if not isinstance(stop, dict) or set(stop) not in ({"maxRound"}, {"maxTime"}):
        raise ConfigInvalid("stop", "expected exactly one of {'maxRound': N} or {'maxTime': T}")
    max_round = stop.get("maxRound")
    max_time = stop.get("maxTime")
    for key, value in stop.items():
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise ConfigInvalid("stop", f"{key} must be a positive integer, got {value!r}")

    return SimConfig(
        stakes=tuple(stakes),
        mode=mode,
        commits_per_epoch=commits_per_epoch,
        exclusion_fraction=float(fraction),
        slot_length=slot_length,
        gst=gst,
        delta=delta,
        leader_timeout=leader_timeout,
        pre_gst_policy=policy,
        seed=seed,
        fault_plan=tuple(plan),
        max_round=max_round,
        max_time=max_time,
        tx_rate_per_node=tx_rate,
        batch_size=batch_size,
    )


def load_config(path: str | Path) -> SimConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("<file>", f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("<file>", "top level must be a JSON object")
    return parse_config(raw)
