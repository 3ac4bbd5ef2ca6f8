"""The cyclic collector is paused over run and trace data.

Pausing it is safe only because that data holds no reference cycles, so
reference counting frees it; these tests pin that premise, and that every
pause restores the collector as its caller left it.
"""

import gc

import pytest

from repdag.config import parse_config
from repdag.harness import load_run, run_in_memory, run_scenario
from repdag.simnet import gc_paused, run
from repdag.traces import TraceInvalid

from .test_golden import CORPUS


def garbage_after(action):
    """Objects in cycles that ``action`` leaves once its result is dropped."""
    # Collector off throughout, so no automatic pass can hide any garbage.
    with gc_paused():
        gc.collect()
        action()
        return gc.collect()


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector's state before the test body; restored after it."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


@pytest.mark.filterwarnings("ignore:fault plan crashes")
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_runs_leave_no_cyclic_garbage(name):
    cfg = parse_config(CORPUS[name][0])
    assert garbage_after(lambda: run(cfg)) == 0
    assert garbage_after(lambda: run_in_memory(cfg)) == 0


def test_persisting_and_loading_leave_garbage_that_does_not_grow(tmp_path):
    # ``json.dumps(indent=...)`` leaves a fixed cycle per call; nothing that
    # scales with the records may join it.
    def garbage(rounds):
        cfg = parse_config({"stakes": [1] * 4, "Delta": 3, "stop": {"maxRound": rounds}, "seed": 1})
        out = tmp_path / str(rounds)
        return garbage_after(lambda: run_scenario(cfg, out)), garbage_after(lambda: load_run(out))

    assert garbage(10) == garbage(80)


def test_pause_nests_and_restores_on_exceptions(collector):
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(RuntimeError), gc_paused():
            raise RuntimeError
        assert not gc.isenabled()
    assert gc.isenabled() is collector
    with pytest.raises(RuntimeError), gc_paused():
        raise RuntimeError
    assert gc.isenabled() is collector


def test_a_pause_leaves_its_data_to_the_oldest_generation(collector):
    # A caller that keeps a run's records does not have young collections
    # walk them later; with the collector off, nothing is moved.
    with gc_paused():
        kept = [[i] for i in range(1000)]
    oldest = {id(obj) for obj in gc.get_objects(generation=2)}
    assert (id(kept) in oldest) is collector


def test_run_persist_and_load_restore_the_collector(collector, tmp_path):
    cfg = parse_config({"stakes": [1] * 4, "stop": {"maxRound": 8}, "seed": 2})
    run(cfg)
    assert gc.isenabled() is collector
    run_scenario(cfg, tmp_path)
    assert gc.isenabled() is collector
    load_run(tmp_path)
    assert gc.isenabled() is collector
    (tmp_path / "node-01.jsonl").write_text("not a trace\n")
    with pytest.raises(TraceInvalid):
        load_run(tmp_path)
    assert gc.isenabled() is collector
