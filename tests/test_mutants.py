"""A mutant gate: one-line faults in the replica code that the pins must catch.

Each mutant rewrites one line of one function of ``src/repdag``: the test
edits the function's source text, compiles it in a copy of its module's
namespace and patches the result in with ``monkeypatch`` wherever the module
or an importer binds the original name. Nothing in ``src/`` knows about it.
The mutant is killed when a config of the golden corpus (``tests/test_golden.py``)
breaks one of its pins: the node trace digest, the event-loop counters, or the
discards and ``retro_recheck`` commits that ``SPLIT_PATHS`` pins. The split-view
configs run first, as they are the ones that reach the schedule-switch paths.
"""

import __future__
import hashlib
import inspect
import textwrap

import pytest

from repdag import commit, reputation
from repdag.config import parse_config
from repdag.simnet import run
from repdag.traces import serialize

from .test_golden import CORPUS, COUNTERS, SPLIT_PATHS

# name -> (module, function, line as written, mutated line)
MUTANTS = {
    "no-anchor-discard": (
        commit,
        "order_history",
        "if state.book.leader_for(anchor.round) != anchor.source:",
        "if False:",
    ),
    "no-retro-recheck": (commit, "retro_recheck", "while True:", "while False:"),
    "reversed-history-order": (
        commit,
        "order_history",
        "for row in reversed(causal_history(dag, anchor.id, exclude=sources)):",
        "for row in causal_history(dag, anchor.id, exclude=sources):",
    ),
    "f-votes": (
        commit,
        "try_committing",
        "if anchor_votes(dag, v, anchor.id) < state.committee.commit_threshold:",
        "if anchor_votes(dag, v, anchor.id) < state.committee.commit_threshold - 1:",
    ),
    "scores-from-local-dag": (
        reputation,
        "compute_scores",
        "for voter in history[to_round_exclusive - e - 1]:",
        "for voter in dag.vertices_at(e + 1).values():",
    ),
}

ORDER = sorted(SPLIT_PATHS) + sorted(set(CORPUS) - set(SPLIT_PATHS))


def mutate(monkeypatch, module, function, line, mutated):
    """Patch ``module.function`` with ``line`` of its source replaced by ``mutated``."""
    original = getattr(module, function)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(line) == 1, f"{module.__name__}.{function} no longer holds {line!r}"
    namespace = dict(vars(module))
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(line, mutated), module.__file__, "exec", flags=flags, dont_inherit=True), namespace)
    for mod in (commit, reputation):
        if getattr(mod, function, None) is original:
            monkeypatch.setattr(mod, function, namespace[function])


def first_broken_pin(monkeypatch):
    """The first corpus pin the code as patched breaks, or None."""
    rechecked = []
    recheck = commit.retro_recheck

    def counting_retro_recheck(state, dag, tracer):
        before = sum(rec["kind"] == "anchor-committed" for rec in tracer.records)
        recheck(state, dag, tracer)
        rechecked.append(sum(rec["kind"] == "anchor-committed" for rec in tracer.records) - before)

    monkeypatch.setattr(commit, "retro_recheck", counting_retro_recheck)
    for name in ORDER:
        raw, pinned = CORPUS[name]
        rechecked.clear()
        result = run(parse_config(raw))
        digest = hashlib.sha256()
        for tracer in result.tracers:
            digest.update(serialize(tracer.node, tracer.records).encode())
        if digest.hexdigest() != pinned:
            return f"{name}: trace digest"
        if (result.end_time, result.events_executed) != COUNTERS[name]:
            return f"{name}: event-loop counters"
        discards = [len(n.commit.discarded_anchors) for n in result.nodes]
        if name in SPLIT_PATHS and (discards, sum(rechecked)) != SPLIT_PATHS[name]:
            return f"{name}: split-view paths"
    return None


def test_the_unmutated_code_keeps_every_pin(monkeypatch):
    assert first_broken_pin(monkeypatch) is None


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, monkeypatch):
    mutate(monkeypatch, *MUTANTS[name])
    assert first_broken_pin(monkeypatch) is not None, f"mutant {name} survives every golden pin"
