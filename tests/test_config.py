import json
import pickle

import pytest

from repdag.config import ConfigInvalid, SimConfig, load_config, parse_config
from repdag.simnet import run
from repdag.traces import serialize


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


def test_direct_config_takes_the_file_defaults():
    # Derived defaults included: L from n, leaderTimeout from Delta, batchSize from txRatePerNode.
    assert SimConfig(stakes=(1,) * 4) == parse_config(minimal())
    cfg = SimConfig(stakes=(1,) * 4, delta=3, tx_rate_per_node=0)
    assert cfg == parse_config(minimal(Delta=3, txRatePerNode=0))
    assert (cfg.slot_length, cfg.leader_timeout, cfg.batch_size) == (4, 6, 1)


def test_direct_config_runs_like_the_parsed_one():
    direct = run(SimConfig(stakes=(1,) * 4, max_round=12))
    parsed = run(parse_config(minimal(stop={"maxRound": 12})))
    assert [serialize(t.node, t.records) for t in direct.tracers] == [
        serialize(t.node, t.records) for t in parsed.tracers
    ]


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


def test_replace_derives_again_what_it_sets_to_none():
    cfg = parse_config(minimal(Delta=3, txRatePerNode=1))
    assert (cfg.slot_length, cfg.leader_timeout, cfg.batch_size) == (4, 6, 4)
    kept = cfg.replace(stakes=(1,) * 7, delta=2)
    assert (kept.slot_length, kept.leader_timeout, kept.batch_size) == (4, 6, 4)
    derived = cfg.replace(stakes=(1,) * 7, delta=2, slot_length=None, leader_timeout=None, batch_size=None)
    assert (derived.slot_length, derived.leader_timeout, derived.batch_size) == (7, 4, 7)
    assert derived == SimConfig(stakes=(1,) * 7, tx_rate_per_node=1)
    assert SimConfig(stakes=(1,) * 5).with_seed(3) == SimConfig(stakes=(1,) * 5, seed=3)
    assert cfg.replace() == cfg and cfg.with_seed(cfg.seed) == cfg


def test_a_config_is_an_immutable_value_that_pickles():
    cfg = parse_config(minimal(T=4, faultPlan=[[3, 5]], stop={"maxTime": 90}))
    for field in ("seed", "slot_length"):
        with pytest.raises(AttributeError):
            setattr(cfg, field, 1)
        with pytest.raises(AttributeError):
            delattr(cfg, field)
    again = pickle.loads(pickle.dumps(cfg))
    assert again == cfg and hash(again) == hash(cfg)
    assert again.to_json_dict() == cfg.to_json_dict()


def test_load_config_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal(seed=5)))
    assert load_config(path).seed == 5
    path.write_text("{broken")
    with pytest.raises(ConfigInvalid):
        load_config(path)
