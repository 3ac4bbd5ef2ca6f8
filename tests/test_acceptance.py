"""Acceptance suite.

One test per criterion, each asserting at its stated tolerance and printing a
single PASS line (run with ``pytest -s`` to see them on success). The paired
fault sweeps are the slowest part; they share one module-scoped fixture.
"""

import hashlib
import random
import statistics
import time

import pytest

from repdag.checks import (
    check_leader_utilization,
    check_rb_agreement,
    check_rb_validity,
    check_schedule_agreement,
    check_total_order,
)
from repdag.committee import new_committee
from repdag.config import parse_config
from repdag.dag import AnchorReach, DagState, path
from repdag.harness import run_in_memory, write_run
from repdag.metrics import compute_metrics
from repdag.reputation import Schedule, ScheduleBook, build_next_schedule, compute_scores, select_swap_sets
from repdag.simnet import run

from .conftest import manifest_for, random_dag_vertices, replay
from .oracles import brute_scores, brute_swap, commit_log, naive_path

SWEEP_SEEDS = list(range(10))
SWEEP_ROUNDS = 600
SWEEP_BASE = {
    "stakes": [1] * 10,
    "stop": {"maxRound": SWEEP_ROUNDS},
    "Delta": 1,
    "leaderTimeout": 6,
    "txRatePerNode": 2,
    "batchSize": 20,
    "T": 10,
}
SWEEP_CRASHES = [[7, 0], [8, 0], [9, 0]]


def metrics_of(raw):
    cfg = parse_config(raw)
    metrics, _ = run_in_memory(cfg)
    return metrics


def view_distance_bound(cfg_dict):
    """Configured epoch-lag tolerance: one delivery, one leader wait, and a
    six-round commit pipeline."""
    return cfg_dict["Delta"] + cfg_dict["leaderTimeout"] + 6 * cfg_dict["Delta"]


@pytest.fixture(scope="module")
def paired_sweep():
    """Faultless and max-fault runs for both modes over the shared seeds."""
    out = {"hh": {}, "rr": {}, "hh_crash": {}, "rr_crash": {}}
    for seed in SWEEP_SEEDS:
        out["hh"][seed] = metrics_of({**SWEEP_BASE, "seed": seed})
        out["rr"][seed] = metrics_of({**SWEEP_BASE, "mode": "round-robin", "seed": seed})
        out["hh_crash"][seed] = metrics_of({**SWEEP_BASE, "seed": seed, "faultPlan": SWEEP_CRASHES})
        out["rr_crash"][seed] = metrics_of(
            {**SWEEP_BASE, "mode": "round-robin", "seed": seed, "faultPlan": SWEEP_CRASHES}
        )
    return out


def test_criterion_1_safety_suite():
    started = time.monotonic()
    runs = 0
    for n in (4, 7, 10):
        f = (n - 1) // 3
        for gst in (0, 30):
            for crashes in range(f + 1):
                for seed in range(12):
                    delta = 1 + seed % 3
                    policy = "random:12" if gst > 0 and seed % 4 == 0 else "hold"
                    plan = [[n - 1 - i, gst + 7 * i] for i in range(crashes)]
                    cfg = parse_config(
                        {
                            "stakes": [1] * n,
                            "stop": {"maxRound": 60},
                            "GST": gst,
                            "Delta": delta,
                            "leaderTimeout": 4 * delta,
                            "preGstPolicy": policy,
                            "seed": 1000 * n + seed,
                            "faultPlan": plan,
                            "T": 10,
                        }
                    )
                    result = run(cfg)
                    records = result.records_by_node
                    manifest = manifest_for(cfg)
                    label = f"n={n} gst={gst} crashes={crashes} seed={seed}"
                    assert check_total_order(records).ok, label
                    assert check_schedule_agreement(records, manifest).ok, label
                    assert check_rb_validity(records, manifest).ok, label
                    assert check_rb_agreement(records, manifest).ok, label
                    runs += 1
    elapsed = time.monotonic() - started
    assert runs >= 200
    assert elapsed < 300, f"safety suite took {elapsed:.0f}s, budget is 300s"
    print(f"PASS criterion 1: safety suite ok on {runs} runs in {elapsed:.0f}s")


def test_criterion_2_leader_utilization():
    span = 10
    for n, max_round in ((4, 96), (10, 120)):
        f = (n - 1) // 3
        for crashes in range(1, f + 1):
            for seed in (0, 1):
                plan = [[n - 1 - i, 0] for i in range(crashes)]
                base = {
                    "stakes": [1] * n,
                    "stop": {"maxRound": max_round},
                    "Delta": 1,
                    "leaderTimeout": 6,
                    "seed": seed,
                    "faultPlan": plan,
                    "T": span,
                }
                cfg_hh = parse_config(base)
                hh = check_leader_utilization(run(cfg_hh).records_by_node, manifest_for(cfg_hh))
                assert hh.bound == (span + 1) * crashes + (span + 1) // 2 + 2
                assert hh.ok, f"n={n} c={crashes} seed={seed}: {hh}"
                cfg_rr = parse_config({**base, "mode": "round-robin"})
                rr = check_leader_utilization(run(cfg_rr).records_by_node, manifest_for(cfg_rr))
                window_rounds = (rr.window[1] - rr.window[0]) // 2 + 1
                floor = window_rounds * crashes / n - 2
                assert rr.skipped >= floor, f"n={n} c={crashes} seed={seed}: {rr} vs floor {floor:.1f}"
    print("PASS criterion 2: reputation keeps skips within (T+1)*c + warmup; static rotation grows linearly")


def test_criterion_3_faultless_parity(paired_sweep):
    for seed in SWEEP_SEEDS:
        hh, rr = paired_sweep["hh"][seed], paired_sweep["rr"][seed]
        assert hh.throughput >= 0.99 * rr.throughput, f"seed {seed}"
        assert hh.latency_avg <= rr.latency_avg + 1.0, f"seed {seed}"
    print("PASS criterion 3: faultless parity (throughput >= 0.99x, latency within 1 tick)")


def test_criterion_4_fault_tolerance(paired_sweep):
    for seed in SWEEP_SEEDS:
        hh_ratio = paired_sweep["hh_crash"][seed].throughput / paired_sweep["hh"][seed].throughput
        rr_ratio = paired_sweep["rr_crash"][seed].throughput / paired_sweep["rr"][seed].throughput
        assert hh_ratio >= 0.95, f"seed {seed}: reputation mode degraded to {hh_ratio:.3f}"
        assert rr_ratio <= 0.80, f"seed {seed}: static rotation only degraded to {rr_ratio:.3f}"
        lat_hh = paired_sweep["hh_crash"][seed].latency_avg
        lat_rr = paired_sweep["rr_crash"][seed].latency_avg
        assert lat_hh < lat_rr, f"seed {seed}: latency {lat_hh} vs {lat_rr}"
    hh_mean = statistics.fmean(m.throughput for m in paired_sweep["hh_crash"].values())
    rr_mean = statistics.fmean(m.throughput for m in paired_sweep["rr_crash"].values())
    print(
        f"PASS criterion 4: under max faults reputation mode holds throughput "
        f"({hh_mean:.2f} tx/tick vs static {rr_mean:.2f})"
    )


def test_criterion_5_determinism(tmp_path):
    configs = []
    for n in (4, 7, 10):
        for gst in (0, 20):
            configs.append({"stakes": [1] * n, "GST": gst, "stop": {"maxRound": 24}, "Delta": 2, "seed": n + gst})
    for mode in ("hammerhead", "round-robin"):
        for delta in (1, 3):
            configs.append(
                {"stakes": [1] * 4, "mode": mode, "Delta": delta, "stop": {"maxRound": 24}, "seed": delta}
            )
    for c in (1, 2, 3):
        configs.append({"stakes": [1] * 10, "faultPlan": [[9 - i, 5] for i in range(c)], "stop": {"maxRound": 24}, "seed": c})
    configs.append({"stakes": [3, 1, 1, 1, 1, 1, 1], "stop": {"maxRound": 24}, "seed": 8})
    configs.append({"stakes": [1] * 7, "GST": 25, "preGstPolicy": "random:9", "stop": {"maxRound": 24}, "seed": 4})
    configs.append({"stakes": [1] * 4, "stop": {"maxTime": 90}, "seed": 17})
    configs.append({"stakes": [1] * 4, "T": 4, "stop": {"maxRound": 30}, "seed": 21})
    configs.append({"stakes": [2, 2, 1, 1, 1], "L": 10, "stop": {"maxRound": 24}, "seed": 13})
    configs.append({"stakes": [1] * 4, "leaderTimeout": 9, "faultPlan": [[0, 0]], "stop": {"maxRound": 24}, "seed": 29})
    configs.append({"stakes": [1] * 4, "txRatePerNode": 0, "stop": {"maxRound": 24}, "seed": 31})
    assert len(configs) >= 20

    def run_digest(raw, tag):
        cfg = parse_config(raw)
        out = write_run(run(cfg), tmp_path / tag)
        digest = hashlib.sha256()
        for trace_file in sorted(out.glob("node-*.jsonl")):
            digest.update(trace_file.read_bytes())
        digest.update((out / "manifest.json").read_bytes())
        return digest.hexdigest()

    for i, raw in enumerate(configs):
        assert run_digest(raw, f"{i}-a") == run_digest(raw, f"{i}-b"), f"config {i} not reproducible"
    print(f"PASS criterion 5: {len(configs)} configs rerun to byte-identical traces")


def test_criterion_6_oracle_equivalence():
    committee = new_committee([1, 1, 1, 1])
    trials = 1000
    for trial in range(trials):
        rng = random.Random(trial * 7919)
        vertices = random_dag_vertices(rng, committee, rng.randint(4, 12))
        dag = DagState(committee)
        for v in vertices:
            dag.insert(v)
        slots = list(committee.members)
        rng.shuffle(slots)
        book = ScheduleBook(Schedule(epoch=0, initial_round=0, slots=tuple(slots)))

        # reachability: both the plain search and the memoized per-anchor set
        probes = rng.sample(vertices, k=min(6, len(vertices)))
        target = rng.choice(vertices)
        reach = AnchorReach(dag, target.id, max_round=dag.highest_round)
        for a in probes:
            assert path(dag, a.id, target.id) == naive_path(dag, a.id, target.id)
            assert reach.covers(a.id) == naive_path(dag, a.id, target.id)

        # vote scoring against literal enumeration
        top = dag.highest_round - dag.highest_round % 2
        to_round = rng.randrange(2, top + 2, 2) if top >= 2 else 0
        if to_round:
            got = compute_scores(dag, book, 0, to_round)
            assert got == brute_scores(dag, book, committee, 0, to_round)

        # swap rule against literal enumeration
        points = {v: rng.randint(0, 5) for v in committee.members}
        prev = Schedule(epoch=0, initial_round=0, slots=tuple(slots))
        successor = build_next_schedule(prev, points, committee, 0.33, 2)
        want_slots, want_b, want_g = brute_swap(slots, points, committee)
        assert list(successor.slots) == want_slots
        assert select_swap_sets(committee, points, 0.33) == (want_b, want_g)

        # shuffled delivery must reproduce the canonical commit log
        canonical, _, canonical_tr = replay(committee, vertices, range(len(vertices)), trial, switch_span=4)
        order = list(range(len(vertices)))
        rng.shuffle(order)
        shuffled, _, shuffled_tr = replay(committee, vertices, order, trial, switch_span=4)
        assert commit_log(canonical_tr.records) == commit_log(shuffled_tr.records), f"trial {trial}"
        assert [s.slots for s in canonical.book.schedules] == [s.slots for s in shuffled.book.schedules]
    print(f"PASS criterion 6: oracle equivalence over {trials} random dags")


def test_criterion_7_liveness_epoch_progression():
    span = 10
    for n in (4, 10):
        f = (n - 1) // 3
        for crashes in range(f + 1):
            for gst in (0, 30):
                for seed in (0, 1):
                    plan = [[n - 1 - i, gst] for i in range(crashes)]
                    raw = {
                        "stakes": [1] * n,
                        "stop": {"maxRound": 30 + 4 * span * 2},  # >= 4T anchor rounds after GST
                        "GST": gst,
                        "Delta": 1,
                        "leaderTimeout": 6,
                        "seed": seed,
                        "faultPlan": plan,
                        "T": span,
                    }
                    cfg = parse_config(raw)
                    result = run(cfg)
                    label = f"n={n} c={crashes} gst={gst} seed={seed}"
                    for tracer in result.tracers:
                        if result.nodes[tracer.node].crashed:
                            continue
                        epochs = {r["epoch"] for r in tracer.records if r["kind"] == "schedule-switched"}
                        assert len(epochs) >= 2, f"{label} node {tracer.node}: epochs {epochs}"
                    metrics = compute_metrics(result.records_by_node, manifest_for(cfg))
                    bound = view_distance_bound(raw)
                    assert metrics.epoch_switch_lag_max <= bound, (
                        f"{label}: lag {metrics.epoch_switch_lag_max} > bound {bound}"
                    )
    print("PASS criterion 7: every honest node progresses >= 2 epochs within the lag bound")
