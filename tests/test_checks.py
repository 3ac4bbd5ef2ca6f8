import copy
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repdag.checks import (
    check_delivery_bound,
    check_leader_utilization,
    check_rb_agreement,
    check_rb_validity,
    check_schedule_agreement,
    check_total_order,
)
from repdag.config import MODES
from repdag.metrics import honest_nodes

from .conftest import manifest_for, quick_run
from .oracles import all_nodes_rb_agreement, all_nodes_rb_validity


def crashy_run():
    return quick_run(seed=6, Delta=2, faultPlan=[[3, 0]], stop={"maxRound": 60}, T=10)


class TestTotalOrder:
    def test_golden_run_passes(self):
        cfg, result = crashy_run()
        assert check_total_order(result.records_by_node).ok

    def test_swapped_entries_flagged(self):
        cfg, result = crashy_run()
        records = copy.deepcopy(result.records_by_node)
        ordered = next(r["ordered"] for r in records[0] if r["kind"] == "anchor-committed")
        assert len(ordered) > 4
        ordered[3], ordered[4] = ordered[4], ordered[3]
        verdict = check_total_order(records)
        assert not verdict.ok
        assert verdict.divergence_index == 3
        assert 0 in (verdict.node_a, verdict.node_b)

    def test_crashed_nodes_shorter_log_is_fine(self):
        cfg, result = quick_run(seed=2, faultPlan=[[1, 20]], stop={"maxRound": 30})
        assert check_total_order(result.records_by_node).ok


class TestScheduleAgreement:
    def test_golden_run_passes(self):
        cfg, result = crashy_run()
        verdict = check_schedule_agreement(result.records_by_node, manifest_for(cfg))
        assert verdict.ok, verdict

    def test_mutated_slots_flagged(self):
        cfg, result = crashy_run()
        records = copy.deepcopy(result.records_by_node)
        for rec in records[2]:
            if rec["kind"] == "schedule-switched":
                rec["slots"] = list(reversed(rec["slots"]))
                break
        verdict = check_schedule_agreement(records, manifest_for(cfg))
        assert verdict.status == "violation"

    def test_truncated_laggard_is_inconclusive_not_failed(self):
        cfg, result = crashy_run()
        records = copy.deepcopy(result.records_by_node)
        top_epoch = max(
            rec["epoch"] for recs in records.values() for rec in recs if rec["kind"] == "schedule-switched"
        )
        records[1] = [
            rec for rec in records[1] if not (rec["kind"] == "schedule-switched" and rec["epoch"] == top_epoch)
        ]
        verdict = check_schedule_agreement(records, manifest_for(cfg))
        assert verdict.status == "inconclusive"
        assert verdict.epoch == top_epoch


class TestLeaderUtilization:
    def test_faultless_run_skips_nothing(self):
        cfg, result = quick_run(seed=1, stop={"maxRound": 40})
        report = check_leader_utilization(result.records_by_node, manifest_for(cfg))
        assert report.ok and report.skipped == 0

    def test_reputation_mode_within_bound(self):
        cfg, result = crashy_run()
        report = check_leader_utilization(result.records_by_node, manifest_for(cfg))
        assert report.ok
        assert report.bound == 11 * 1 + 7

    def test_static_rotation_exceeds_bound_on_long_runs(self):
        cfg, result = quick_run(
            seed=6, Delta=2, mode="round-robin", faultPlan=[[3, 0]], stop={"maxRound": 200}, T=10
        )
        report = check_leader_utilization(result.records_by_node, manifest_for(cfg))
        assert not report.ok
        assert report.skipped > report.bound

    def test_verdict_says_when_the_bound_cannot_be_exceeded(self):
        # Round-robin keeps skipping the crashed leader's rounds, but 20 rounds
        # hold fewer anchor rounds than the bound of 11 * 1 + 7.
        cfg, result = quick_run(
            seed=6, Delta=2, mode="round-robin", faultPlan=[[3, 0]], stop={"maxRound": 20}, T=10
        )
        report = check_leader_utilization(result.records_by_node, manifest_for(cfg))
        assert report.ok and report.skipped > 0
        assert report.bound == 18 >= report.anchor_rounds
        cannot_fail = f"the window's {report.anchor_rounds} anchor rounds, so this check cannot fail"
        assert str(report).endswith(cannot_fail)
        # With more anchor rounds than the bound the verdict reads as before.
        cfg, result = crashy_run()
        report = check_leader_utilization(result.records_by_node, manifest_for(cfg))
        assert report.anchor_rounds > report.bound
        assert "cannot fail" not in str(report) and str(report).endswith("crashed 1)")

    def test_erasing_commits_raises_skips(self):
        cfg, result = crashy_run()
        records = copy.deepcopy(result.records_by_node)
        baseline = check_leader_utilization(records, manifest_for(cfg)).skipped
        target_rounds = {10, 12, 14}
        for recs in records.values():
            recs[:] = [
                r for r in recs if not (r["kind"] == "anchor-committed" and r["round"] in target_rounds)
            ]
        mutated = check_leader_utilization(records, manifest_for(cfg)).skipped
        assert mutated == baseline + len(target_rounds)


class TestReliableBroadcast:
    def test_missing_delivery_flagged(self):
        cfg, result = crashy_run()
        records = copy.deepcopy(result.records_by_node)
        for rec in records[2]:
            if rec["kind"] == "vertex-delivered":
                records[2].remove(rec)
                break
        vid = tuple(rec["id"])
        for check in (check_rb_agreement, check_rb_validity):
            verdict = check(records, manifest_for(cfg))
            assert not verdict.ok
            assert verdict.missing == ((2, vid),)

    def test_late_delivery_flagged(self):
        cfg, result = crashy_run()
        records = copy.deepcopy(result.records_by_node)
        rec = next(r for r in records[1] if r["kind"] == "vertex-delivered")
        vid = tuple(rec["id"])
        (sent,) = [r["at"] for r in records[vid[1]] if r["kind"] == "vertex-created" and tuple(r["id"]) == vid]
        assert check_delivery_bound(records, manifest_for(cfg)).ok
        rec["at"] = cfg.delta + max(cfg.gst, sent) + 1
        verdict = check_delivery_bound(records, manifest_for(cfg))
        assert not verdict.ok
        assert verdict.missing == ((1, vid),)

    def test_delivery_of_an_uncreated_vertex_flagged(self):
        # No send time bounds such a delivery, so it is a violation, listed
        # among the late ones in node and then delivery order.
        cfg, result = crashy_run()
        records = copy.deepcopy(result.records_by_node)
        records[2].insert(0, {"at": 5, "kind": "vertex-delivered", "id": (91, 0)})
        rec = next(r for r in records[1] if r["kind"] == "vertex-delivered")
        rec["at"] += 10 * (cfg.delta + cfg.gst)
        records[1].append({"at": 5, "kind": "vertex-delivered", "id": (90, 2)})
        verdict = check_delivery_bound(records, manifest_for(cfg))
        assert not verdict.ok
        assert verdict.missing == ((1, tuple(rec["id"])), (1, (90, 2)), (2, (91, 0)))

    def test_rb_checkers_hold_one_node_at_a_time(self):
        # The checkers' peak allocation is measured against one honest node's
        # set of delivered ids; holding every node's set at once needs about n.
        cfg, result = quick_run(stakes=[1] * 10, Delta=1, stop={"maxRound": 40})
        records, manifest = result.records_by_node, manifest_for(cfg)
        tracemalloc.start()
        try:
            one_node = {tuple(rec["id"]) for rec in records[0] if rec["kind"] == "vertex-delivered"}
            set_bytes = tracemalloc.get_traced_memory()[0]
            del one_node
            for check in (check_rb_validity, check_rb_agreement):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert check(records, manifest).ok
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak < 4 * set_bytes, (check.__name__, peak, set_bytes)
        finally:
            tracemalloc.stop()


@st.composite
def scenarios(draw):
    """A random scenario: n in 4..10 with stakes 1..5, crashes at random ticks
    holding at most (total stake - 1) // 3, random GST, Delta, leader timeout
    and pre-GST policy, either mode."""
    n = draw(st.integers(min_value=4, max_value=10))
    stakes = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n))
    crashed, budget = [], (sum(stakes) - 1) // 3
    for v in draw(st.permutations(range(n)))[: draw(st.integers(min_value=0, max_value=n - 1))]:
        if stakes[v] <= budget:
            crashed.append(v)
            budget -= stakes[v]
    delta = draw(st.integers(min_value=1, max_value=5))
    return {
        "stakes": stakes,
        "mode": draw(st.sampled_from(MODES)),
        "T": draw(st.integers(min_value=1, max_value=10)),
        "GST": draw(st.integers(min_value=0, max_value=40)),
        "Delta": delta,
        "leaderTimeout": draw(st.integers(min_value=1, max_value=4 * delta)),
        "preGstPolicy": draw(st.just("hold") | st.integers(min_value=1, max_value=20).map("random:{}".format)),
        "faultPlan": [[v, draw(st.integers(min_value=0, max_value=100))] for v in crashed],
        "seed": draw(st.integers(min_value=0, max_value=10**6)),
        "stop": {"maxRound": draw(st.integers(min_value=1, max_value=40))},
    }


class TestRandomScenarios:
    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_every_checker_reports_ok(self, raw):
        cfg, result = quick_run(**raw)
        records, manifest = result.records_by_node, manifest_for(cfg)
        assert check_total_order(records).ok
        assert check_schedule_agreement(records, manifest).status == "ok"
        assert check_rb_validity(records, manifest).ok
        assert check_rb_agreement(records, manifest).ok
        assert check_delivery_bound(records, manifest).ok

    @settings(max_examples=40, deadline=None)
    @given(scenarios(), st.data())
    def test_rb_checkers_match_the_all_nodes_oracle(self, raw, data):
        """Drop random deliveries at random honest nodes and inject one
        delivery, of a created or an unknown vertex, at a single node: the
        rb verdicts, ``missing`` included, equal the all-nodes oracle's."""
        cfg, result = quick_run(**raw)
        manifest = manifest_for(cfg)
        records = {node: list(recs) for node, recs in result.records_by_node.items()}
        honest = honest_nodes(manifest)
        for node in data.draw(st.lists(st.sampled_from(honest), max_size=4)):
            delivered = [i for i, rec in enumerate(records[node]) if rec["kind"] == "vertex-delivered"]
            if delivered:
                del records[node][data.draw(st.sampled_from(delivered))]
        created = [rec["id"] for recs in records.values() for rec in recs if rec["kind"] == "vertex-created"]
        unknown = st.tuples(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=cfg.n))
        vid = data.draw(st.sampled_from(created) | unknown if created else unknown)
        node = data.draw(st.sampled_from(honest))
        at = data.draw(st.integers(min_value=0, max_value=len(records[node])))
        records[node].insert(at, {"at": 0, "kind": "vertex-delivered", "id": vid})
        for check, oracle in ((check_rb_validity, all_nodes_rb_validity), (check_rb_agreement, all_nodes_rb_agreement)):
            verdict, expected = check(records, manifest), oracle(records, manifest)
            assert (verdict.name, verdict.ok, verdict.missing) == (expected.name, expected.ok, expected.missing)
