import random

import pytest

from repdag.committee import Committee, new_committee
from repdag.config import parse_config
from repdag.dag import DagState, InsertOutcome, Vertex
from repdag.node import Node
from repdag.reputation import initial_schedule
from repdag.simnet import run
from repdag.traces import Tracer


@pytest.fixture
def committee4() -> Committee:
    return new_committee([1, 1, 1, 1])


def mk_vertex(round, source, parents=()):
    """A vertex whose parents are the given sources, one round below it."""
    return Vertex(id=(round, source), mask=sum(1 << s for s in set(parents)))


def full_dag(committee, rounds, absent=frozenset()):
    """Fully connected dag: every validator in every round unless absent,
    linked to every vertex of the previous round."""
    dag = DagState(committee)
    prev = []
    for r in range(rounds + 1):
        row = []
        for s in committee.members:
            if (r, s) in absent:
                continue
            assert dag.insert(mk_vertex(r, s, prev)) is InsertOutcome.INSERTED
            row.append(s)
        prev = row
    return dag


def random_dag_vertices(rng: random.Random, committee, max_rounds):
    """Random small dag in topological order; each round keeps at least
    quorum-many vertices so the next round can reference them."""
    quorum = committee.quorum_threshold
    vertices = []
    prev = []
    for r in range(max_rounds + 1):
        if r == 0:
            layer = [mk_vertex(0, s) for s in committee.members]
        else:
            layer = []
            width = rng.randint(quorum, committee.n)
            present = sorted(rng.sample(committee.members, k=width))
            for s in present:
                k = rng.randint(quorum, len(prev))
                parents = [v.source for v in rng.sample(prev, k=k)]
                layer.append(mk_vertex(r, s, parents))
        vertices.extend(layer)
        prev = layer
    return vertices


def replay(committee, vertices, order, schedule_seed=0, switch_span=None):
    """Deliver vertices to a fresh node in the given order; the node buffers
    out-of-order arrivals and runs its commit pass. ``round_cap=0`` keeps it
    from creating vertices of its own. Returns its commit state, dag and
    tracer."""
    genesis = initial_schedule(committee, schedule_seed, committee.n)
    node = Node(
        0,
        committee,
        genesis,
        Tracer(0),
        leader_timeout=1,
        batch_size=1,
        round_cap=0,
        switch_span=switch_span,
        exclusion_fraction=0.33,
        tx_supply=lambda node, now: 0,
    )
    for idx in order:
        node.on_deliver(vertices[idx], now=0)
    return node.commit, node.dag, node.tracer


def quick_run(**overrides):
    raw = {"stakes": [1, 1, 1, 1], "stop": {"maxRound": 20}, "Delta": 2, "seed": 0}
    raw.update(overrides)
    cfg = parse_config(raw)
    return cfg, run(cfg)


def manifest_for(cfg):
    return {"config": cfg.to_json_dict()}
