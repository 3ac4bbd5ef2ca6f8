import json

import pytest

from repdag.config import ConfigInvalid, load_config, parse_config


def minimal(**extra):
    raw = {"stakes": [1, 1, 1, 1]}
    raw.update(extra)
    return raw


def test_defaults_resolved():
    cfg = parse_config(minimal())
    assert cfg.mode == "hammerhead"
    assert cfg.commits_per_epoch == 10
    assert cfg.exclusion_fraction == 0.33
    assert cfg.slot_length == 4
    assert cfg.gst == 0 and cfg.delta == 2
    assert cfg.leader_timeout == 4  # twice delta
    assert cfg.pre_gst_policy == "hold"
    assert cfg.max_round == 60 and cfg.max_time is None
    assert cfg.batch_size == 8  # n * txRatePerNode


def test_unknown_key_rejected():
    with pytest.raises(ConfigInvalid, match="gamma"):
        parse_config(minimal(gamma=3))


@pytest.mark.parametrize(
    "field,value",
    [
        ("stakes", []),
        ("stakes", [1, 0, 1]),
        ("mode", "static"),
        ("T", 0),
        ("exclusionFraction", 1.5),
        ("L", 0),
        ("Delta", 0),
        ("GST", -1),
        ("leaderTimeout", 0),
        ("preGstPolicy", "randomish"),
        ("seed", "abc"),
        ("faultPlan", [[9, 0]]),
        ("faultPlan", [[1, -2]]),
        ("faultPlan", [[1, 0], [1, 5]]),
        ("stop", {}),
        ("stop", {"maxRound": 10, "maxTime": 10}),
        ("stop", {"maxRound": 0}),
        ("txRatePerNode", -1),
        ("batchSize", 0),
        ("stakes", [5]),
        ("preGstPolicy", "random:²"),
    ],
)
def test_invalid_fields_rejected(field, value):
    with pytest.raises(ConfigInvalid):
        parse_config(minimal(**{field: value}))


def test_round_robin_never_switches():
    cfg = parse_config(minimal(mode="round-robin", T=10))
    assert cfg.switch_span is None
    cfg = parse_config(minimal(mode="hammerhead", T=10))
    assert cfg.switch_span == 10


def test_overloaded_fault_plan_warns():
    with pytest.warns(UserWarning):
        parse_config(minimal(faultPlan=[[0, 0], [1, 0]]))


def test_json_round_trip():
    cfg = parse_config(minimal(T=12, Delta=3, faultPlan=[[2, 7]], stop={"maxTime": 500}))
    again = parse_config(cfg.to_json_dict())
    assert again == cfg


def test_with_seed_only_changes_seed():
    cfg = parse_config(minimal(seed=1))
    other = cfg.with_seed(9)
    assert other.seed == 9
    assert other.to_json_dict() == {**cfg.to_json_dict(), "seed": 9}


def test_load_config_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal(seed=5)))
    assert load_config(path).seed == 5
    path.write_text("{broken")
    with pytest.raises(ConfigInvalid):
        load_config(path)
