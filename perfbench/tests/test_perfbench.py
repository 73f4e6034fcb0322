"""Tests of the benchmark's own checks, wrappers and declared names.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import os

from perfbench import run
from perfbench.tracer import Tracer, find_wrapped
from perfbench.workloads import (
    FIGURE2_SENDERS,
    Rep,
    SetupClock,
    Timing,
    check_figure2,
    check_fleet,
    check_scenarios,
    check_table2,
    compose_stamps,
    digest_of,
    table2_rows,
)
from repro.fleet.runner import FleetResult, GroupReport
from repro.runtime.sim_runtime import SimRuntime
from repro.scenarios.runner import ScenarioVerdict
from repro.traces import Composable, MatrixCell, Verdict, enumerate_traces
from repro.traces.verify import check_composability
from repro.workloads.experiment import (
    Figure2Config,
    LatencyResult,
    run_total_order_experiment,
)


def declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return [metric["name"] for metric in json.load(handle)[section]]


# ----------------------------------------------------------------------
# Tampered outputs raise the error rate
# ----------------------------------------------------------------------
def figure2_results(cross_after=5, hybrid_switches=None):
    """Synthetic Figure 2 cells whose curves cross after ``cross_after``."""
    results = {}
    for k in FIGURE2_SENDERS:
        seq_ms = 10.0 if k <= cross_after else 40.0
        results[("sequencer", k)] = LatencyResult("sequencer", k, seq_ms, seq_ms, seq_ms, 100)
        results[("token", k)] = LatencyResult("token", k, 20.0, 20.0, 20.0, 100)
        switches = (0 if k <= 5 else 1) if hybrid_switches is None else hybrid_switches
        results[("hybrid", k)] = LatencyResult("hybrid", k, 15.0, 15.0, 15.0, 100, switches)
    return results


def test_figure2_checks_pass_on_the_paper_shape():
    assert check_figure2(figure2_results()).failures == {}


def test_moved_crossover_fails_every_plain_cell():
    checked = check_figure2(figure2_results(cross_after=3))
    assert len(checked.failures) == 20
    assert "sequencer@5" in checked.failures and "token@1" in checked.failures
    assert not any(unit.startswith("hybrid") for unit in checked.failures)


def test_hybrid_switching_below_the_crossover_fails():
    checked = check_figure2(figure2_results(hybrid_switches=1))
    assert sorted(checked.failures) == [f"hybrid@{k}" for k in (1, 2, 3, 4, 5)]
    assert checked.unsafe == []


def fleet_result(cold_switched=False, lost=0, stray_node=None):
    reports = [
        GroupReport(1, True, [0, 1, 2], 0, 10, 30, 2.0, "tokenring", True),
        GroupReport(2, False, [3, 4, 5], 3, 5, 15 - lost, 2.0,
                    "tokenring" if cold_switched else "sequencer", cold_switched),
    ]
    strays = {node: 0 for node in range(6)}
    if stray_node is not None:
        strays[stray_node] = 1
    return FleetResult(
        runtime="sim", groups=2, clients=2, duration=1.0, casts=15, delivered=45 - lost,
        msgs_per_s=45.0, hot_groups=1, hot_switched=1, cold_switched=int(cold_switched),
        stray_packets=sum(strays.values()), per_group=reports, stray_by_node=strays,
    )


def test_fleet_checks_pass_on_a_clean_run():
    assert check_fleet(fleet_result(), members=3).failures == {}


def test_switched_cold_group_fails():
    checked = check_fleet(fleet_result(cold_switched=True), members=3)
    assert list(checked.failures) == ["g2"]
    assert checked.unsafe == []


def test_lost_deliveries_and_strays_are_unsafe():
    checked = check_fleet(fleet_result(lost=1, stray_node=0), members=3)
    assert sorted(checked.failures) == ["g1", "g2"]
    assert sorted(checked.unsafe) == ["g1", "g2"]


def matrix_cell(preserved, paper_says, with_counterexample=True):
    counterexample = object() if (with_counterexample and not preserved) else None
    return MatrixCell("Total Order", "Safety", Verdict(preserved, counterexample, 1, 1), paper_says)


def test_flipped_table2_cell_fails():
    assert check_table2([matrix_cell(True, True)]).failures == {}
    checked = check_table2([matrix_cell(False, True)])
    assert checked.unsafe == ["Total Order/Safety"]


def test_refutation_without_counterexample_fails():
    checked = check_table2([matrix_cell(False, None, with_counterexample=False)])
    assert "without a counterexample" in checked.failures["Total Order/Safety"]


def verdict(name, violations):
    return ScenarioVerdict(
        scenario=name, runtime="sim", seed=42, expected_protocol="tokenring",
        final_protocols={}, switches_completed=0, decisions=[], time_to_switch=None,
        switch_duration_ms=None, max_hiccup_ms=0.0, casts=0, delivered={},
        delivery_ratio=1.0, delivered_rate_before=None, delivered_rate_after=None,
        mean_latency_ms=None, p90_latency_ms=None, settle_time=1.0, duration=1.0,
        violations=violations,
    )


def test_scenario_adaptation_miss_fails_but_stays_correct():
    checked = check_scenarios([
        verdict("burst_loss", ["worst delivery ratio 0.337 below the scenario floor 0.85"]),
        verdict("baseline_steady", []),
        verdict("flash_crowd", ["member 2 delivered 1 duplicates"]),
    ])
    assert sorted(checked.failures) == ["burst_loss", "flash_crowd"]
    assert checked.unsafe == ["flash_crowd"]


def rep(digest, units=("a", "b", "c")):
    return Rep(ops=10, timings={"a": Timing(0.1, 0.1, 1.0, 1.0)}, digest=digest, units=list(units))


def test_digest_mismatch_fails_every_unit():
    failures, unsafe = run.fold_reps([rep("x"), rep("x")])
    assert failures == {} and unsafe == []
    failures, unsafe = run.fold_reps([rep("x"), rep("y")])
    assert sorted(failures) == ["a", "b", "c"]
    assert sorted(unsafe) == ["a", "b", "c"]


# ----------------------------------------------------------------------
# Wrappers exist only in traced mode
# ----------------------------------------------------------------------
def test_wrappers_only_in_traced_mode_and_names_match_benchmark_json():
    seen = []

    def fake_workload(seed, clock, tracer=None):
        seen.append((tracer is None, bool(find_wrapped())))
        return rep("same")

    reps = run.run_reps(fake_workload, 42, 0.0, SetupClock())
    assert seen == [(True, False)] * run.MIN_REPS
    assert sorted(run.end_to_end_metrics(reps)) == sorted(declared("end_to_end"))

    seen.clear()
    reps, metrics, __ = run.run_traced(fake_workload, 42, SetupClock())
    assert seen == [(True, False), (False, True)]
    assert find_wrapped() == []
    assert sorted(metrics) == sorted(declared("per_layer"))


def tiny_cell():
    config = Figure2Config(duration=1.5, warmup=0.5)
    return run_total_order_experiment("hybrid", 6, config)


def test_tracing_is_transparent_and_fully_removed():
    before = {cls: dict(vars(cls)) for cls in (SimRuntime,)}
    untraced = tiny_cell()
    tracer = Tracer()
    tracer.install()
    try:
        assert find_wrapped()
        traced = tiny_cell()
    finally:
        tracer.uninstall()
    assert find_wrapped() == []
    assert dict(vars(SimRuntime)) == before[SimRuntime]
    assert digest_of(untraced) == digest_of(traced)
    selfs = tracer.bucket_self()
    for bucket in ("sim", "net", "stack", "protocols.sequencer", "core", "workloads"):
        assert selfs.get(bucket, 0.0) > 0.0, bucket
    assert tracer.counts["sim.events"] > 0
    # Every span's parent closed after it, and self time never exceeds
    # the span's own duration.
    ends = {index: end for index, __, __, end, __ in tracer.spans}
    for index, __, start, end, parent in tracer.spans:
        assert start <= end
        if parent in ends:
            assert ends[parent] >= end


def test_setup_clock_splits_at_the_first_simulated_step():
    clock = SetupClock()
    original = vars(SimRuntime)["run_until"]
    clock.install()
    try:
        result, (whole,) = clock.timed(tiny_cell)
        sliced, pieces = clock.timed(tiny_cell, marks=(0.5, 1.0))
    finally:
        clock.uninstall()
    assert vars(SimRuntime)["run_until"] is original
    assert result.samples > 0
    assert 0.0 < whole.setup_wall < whole.run_wall
    # Marks cut the run into pieces and leave the outcome alone.
    assert len(pieces) == 3 and all(piece.run_wall > 0.0 for piece in pieces)
    assert pieces[1].setup_wall == pieces[2].setup_wall == 0.0
    assert digest_of(sliced) == digest_of(result)


def test_fastest_timing_takes_each_piece_and_column_minimum():
    def timed(**pieces):
        return Rep(ops=10, timings=pieces, digest="d", units=["a"])

    reps = [
        timed(a=Timing(0.3, 0.2, 1.0, 0.9), b=Timing(0.0, 0.0, 2.0, 2.5)),
        timed(a=Timing(0.1, 0.4, 1.5, 0.8), b=Timing(0.0, 0.0, 3.0, 1.5)),
    ]
    assert run.fastest_timing(reps) == Timing(0.1, 0.2, 3.0, 2.3)


def test_compose_stamps_cut_a_composable_cell_and_restore_the_method():
    prop, messages = table2_rows()[3]
    universe = list(enumerate_traces(messages, (0, 1), 3))
    original = vars(Composable)["compose"]
    plain = check_composability(prop, universe)
    with compose_stamps(5) as stamps:
        stamped = check_composability(prop, universe)
    assert vars(Composable)["compose"] is original
    assert stamped == plain
    assert len(stamps) == plain.variants_checked // 5 > 0
