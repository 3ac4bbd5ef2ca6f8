"""Scenario configuration: defaults, validation, canonical serialization.

``SimConfig`` states every setting's default, derived ones included, and
``_SCALARS`` names each scalar's config-file key. Config files are JSON with
exactly the documented keys; unknown keys are rejected so typos fail loudly
instead of silently running defaults.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Any, Callable

from .frozen import Frozen

MODES = ("hammerhead", "round-robin")


class ConfigInvalid(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class SimConfig(Frozen):
    __slots__ = (
        "stakes", "mode", "commits_per_epoch", "exclusion_fraction", "slot_length", "gst", "delta",
        "leader_timeout", "pre_gst_policy", "seed", "fault_plan", "max_round", "max_time",
        "tx_rate_per_node", "batch_size"
    )

    def __init__(
        self,
        stakes: tuple[int, ...],
        mode: str = "hammerhead",
        commits_per_epoch: int = 10,
        exclusion_fraction: float = 0.33,
        slot_length: int | None = None,  # None: the committee size
        gst: int = 0,
        delta: int = 2,
        leader_timeout: int | None = None,  # None: 2 * delta
        pre_gst_policy: str = "hold",
        seed: int = 0,
        fault_plan: tuple[tuple[int, int], ...] = (),
        max_round: int | None = 60,
        max_time: int | None = None,
        tx_rate_per_node: int = 2,
        batch_size: int | None = None,  # None: n * tx_rate_per_node, at least 1
    ) -> None:
        n = len(stakes)
        slot_length = n if slot_length is None else slot_length
        leader_timeout = 2 * delta if leader_timeout is None else leader_timeout
        batch_size = max(1, n * tx_rate_per_node) if batch_size is None else batch_size
        self._assign(
            stakes, mode, commits_per_epoch, exclusion_fraction, slot_length, gst, delta, leader_timeout,
            pre_gst_policy, seed, fault_plan, max_round, max_time, tx_rate_per_node, batch_size
        )

    def replace(self, **changes: Any) -> SimConfig:
        """A copy with ``changes`` applied; a derived setting changed to None is derived again."""
        return SimConfig(**dict(zip(self.__slots__, self._values())) | changes)

    @property
    def n(self) -> int:
        return len(self.stakes)

    @property
    def switch_span(self) -> int | None:
        """Rounds an epoch lasts before a switch; the baseline never switches."""
        return None if self.mode == "round-robin" else self.commits_per_epoch

    @property
    def pre_gst_max(self) -> int | None:
        """The ``random:`` policy's bound on a pre-GST copy's extra delay; None under ``hold``."""
        return None if self.pre_gst_policy == "hold" else int(self.pre_gst_policy.split(":", 1)[1])

    def with_seed(self, seed: int) -> "SimConfig":
        return self.replace(seed=seed)

    def to_json_dict(self) -> dict[str, Any]:
        """Canonical wire form, same keys a config file uses."""
        stop: dict[str, int] = {}
        if self.max_round is not None:
            stop["maxRound"] = self.max_round
        if self.max_time is not None:
            stop["maxTime"] = self.max_time
        return {
            "stakes": list(self.stakes),
            **{key: getattr(self, field) for key, (field, _valid, _expected) in _SCALARS.items()},
            "faultPlan": [list(entry) for entry in self.fault_plan],
            "stop": stop,
        }


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_at_least(minimum: int) -> tuple[Callable[[Any], bool], str]:
    return (lambda value: _is_int(value) and value >= minimum), f"an integer >= {minimum}"


def _is_ratio(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < 1


def _is_policy(value: Any) -> bool:
    return isinstance(value, str) and (
        value == "hold" or (value.startswith("random:") and value.split(":", 1)[1].isdecimal())
    )


# Each scalar's config-file key: its SimConfig field, the test a value must
# pass, and what the error says was expected.
_SCALARS: dict[str, tuple[str, Callable[[Any], bool], str]] = {
    "mode": ("mode", lambda value: value in MODES, f"one of {MODES}"),
    "T": ("commits_per_epoch", *_int_at_least(1)),
    "exclusionFraction": ("exclusion_fraction", _is_ratio, "a ratio in (0, 1)"),
    "L": ("slot_length", *_int_at_least(1)),
    "GST": ("gst", *_int_at_least(0)),
    "Delta": ("delta", *_int_at_least(1)),
    "leaderTimeout": ("leader_timeout", *_int_at_least(1)),
    "preGstPolicy": ("pre_gst_policy", _is_policy, "'hold' or 'random:<maxTicks>'"),
    "seed": ("seed", _is_int, "an integer"),
    "txRatePerNode": ("tx_rate_per_node", *_int_at_least(0)),
    "batchSize": ("batch_size", *_int_at_least(1)),
}
_KNOWN_KEYS = frozenset({"stakes", *_SCALARS, "faultPlan", "stop"})


def parse_config(raw: dict[str, Any]) -> SimConfig:
    """Validate a config file's keys; ``SimConfig`` fills in the ones it lacks."""
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigInvalid(sorted(unknown)[0], "unknown config key")

    stakes = raw.get("stakes")
    if not isinstance(stakes, list) or not stakes:
        raise ConfigInvalid("stakes", "expected a non-empty list of positive integers")
    for s in stakes:
        if not _is_int(s) or s <= 0:
            raise ConfigInvalid("stakes", f"stake entries must be positive integers, got {s!r}")
    n = len(stakes)
    if n < 2:
        # A lone validator's own copy lands at once, so every round would
        # run at tick 0 and the run would never reach a time horizon.
        raise ConfigInvalid("stakes", "expected at least two validators")
    fields: dict[str, Any] = {"stakes": tuple(stakes)}

    for key, (field, valid, expected) in _SCALARS.items():
        if key in raw:
            if not valid(raw[key]):
                raise ConfigInvalid(key, f"expected {expected}, got {raw[key]!r}")
            fields[field] = raw[key]

    if "faultPlan" in raw:
        plan = raw["faultPlan"]
        if not isinstance(plan, list):
            raise ConfigInvalid("faultPlan", "expected a list of [validator, crashAt] pairs")
        crashed: set[int] = set()
        for entry in plan:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2 or not all(map(_is_int, entry)):
                raise ConfigInvalid("faultPlan", f"expected [validator, crashAt] pairs, got {entry!r}")
            validator, crash_at = entry
            if not 0 <= validator < n:
                raise ConfigInvalid("faultPlan", f"validator {validator} out of range for n={n}")
            if validator in crashed:
                raise ConfigInvalid("faultPlan", f"validator {validator} listed twice")
            if crash_at < 0:
                raise ConfigInvalid("faultPlan", f"crashAt must be >= 0, got {crash_at}")
            crashed.add(validator)
        # Quorums and votes count validators, not stake.
        if len(crashed) > (n - 1) // 3:
            warnings.warn(
                f"fault plan crashes {len(crashed)} of {n} validators, above the tolerated bound; "
                "property checks are not meaningful for this run",
                stacklevel=2,
            )
        fields["fault_plan"] = tuple(tuple(entry) for entry in plan)

    if "stop" in raw:
        stop = raw["stop"]
        if not isinstance(stop, dict) or set(stop) not in ({"maxRound"}, {"maxTime"}):
            raise ConfigInvalid("stop", "expected exactly one of {'maxRound': N} or {'maxTime': T}")
        for key, value in stop.items():
            if not _is_int(value) or value <= 0:
                raise ConfigInvalid("stop", f"{key} must be a positive integer, got {value!r}")
        fields["max_round"] = stop.get("maxRound")
        fields["max_time"] = stop.get("maxTime")

    return SimConfig(**fields)


def load_config(path: str | Path) -> SimConfig:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except (RecursionError, ValueError) as exc:  # ValueError: also an integer too long to parse
        raise ConfigInvalid("<file>", f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("<file>", "top level must be a JSON object")
    return parse_config(raw)
