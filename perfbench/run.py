"""The repo benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure2 --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1 --out perfbench/ledger/<entry>

An untraced run (``--trace 0``) repeats the workload, each repetition in
this one single-threaded process, for about ``--seconds`` of host time
(at least three times; the outcome digests must agree) and reports each
end-to-end metric from piece-by-piece minima (see :func:`fastest_timing`).  A traced run (``--trace 1``) does one untraced
repetition, then one with the layer wrappers of
:mod:`perfbench.tracer` installed, and reports the per-layer metrics and
the tracing overhead.  ``--workload all`` runs every workload in a
child process of its own.

Every line before the last is for people: provenance, the outcome
digest, failed units and each metric with its unit and clock.  The last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units are the ones
``BENCHMARK.json`` declares, and the run aborts if they drift apart.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("figure2", "scenarios", "fleet", "table2")
#: Three repetitions at least: two to compare digests, and a third so that
#: each piece's fastest time has a choice of more than two.
MIN_REPS = 3

#: Clock of each end-to-end metric, printed next to its value.
END_TO_END_CLOCKS = {
    "ops_per_s": "host-wall",
    "cpu_us_per_op": "host-cpu",
    "setup_s": "host-wall",
    "peak_rss_mb": "host-memory",
}


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def git_commit() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported tree, or one nested in another repository
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def provenance(workload: str, seed: int, traced: bool, seconds: float) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Checks across repetitions
# ----------------------------------------------------------------------
def fold_reps(reps) -> Tuple[Dict[str, str], List[str]]:
    """Failures and unsafe units over repetitions of one seed.

    The repetitions must agree on the outcome digest; if they do not,
    every unit of the workload fails and the run is not correct.
    """
    digests = sorted({rep.digest for rep in reps})
    if len(digests) > 1:
        reason = f"outcome digests differ between repetitions of one seed: {digests}"
        units = reps[0].units
        return {unit: reason for unit in units}, list(units)
    failures: Dict[str, str] = {}
    unsafe: List[str] = []
    for rep in reps:
        failures.update(rep.failures)
        unsafe.extend(unit for unit in rep.unsafe if unit not in unsafe)
    return failures, unsafe


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def fastest_timing(reps):
    """Each timed piece's fastest repetition, summed over pieces.

    Host time on this kind of shared machine swings by a quarter within
    a tenth of a second, and its median drifts by as much over minutes
    as the neighbours' load changes; its floor does not.  A piece of a
    repetition does the same work in every repetition of one seed (the
    digest checks this), so the least time each piece took is the cost
    of that work with the least interference.  The pieces are short — a
    figure2 cell, a slice of a scenario or of the fleet run, a Table 2
    cell — so that each has had an undisturbed moment in some
    repetition.  Each column (set-up and run, wall and CPU) takes its
    own minimum.
    """
    from perfbench.workloads import Timing

    pieces = reps[0].timings
    return Timing(
        *(
            sum(min(rep.timings[piece][column] for rep in reps) for piece in pieces)
            for column in range(len(Timing._fields))
        )
    )


def end_to_end_metrics(reps) -> Dict[str, float]:
    ops = reps[0].ops
    if not ops:
        raise SystemExit("perfbench: the workload completed no operations")
    timing = fastest_timing(reps)
    return {
        "ops_per_s": ops / timing.run_wall,
        "cpu_us_per_op": timing.run_cpu / ops * 1e6,
        "setup_s": timing.setup_wall,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics(tracer, rep, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
    """Per-layer counts and self times from one traced repetition."""
    ops = rep.ops
    selfs = tracer.bucket_self()

    def per_op(count: float) -> float:
        return count / ops if ops else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    calls = tracer.calls_of
    scheduled = sum(
        calls(f"sim:SimRuntime.{name}") for name in ("schedule", "schedule_at", "rearm", "spawn")
    )
    cancelled = calls("sim:EventHandle.cancel") + calls("sim:SimRuntime.rearm")
    packets = tracer.stat_total("net", "sends")
    hops = calls("core:TokenSwitchProtocol._forward") + calls(
        "core:ResilientTokenSwitchProtocol._transmit"
    )
    candidates = calls("traces.composable:Composable.composable_pair")
    checked = calls("traces.composable:Composable.compose")
    pause = selfs.get("gc", 0.0)
    metrics = {
        "sim.events": tracer.counts["sim.events"],
        "sim.events_per_delivery": per_op(tracer.counts["sim.events"]),
        "sim.timers_scheduled": scheduled,
        "sim.timers_cancelled": cancelled,
        "sim.cancel_ratio": ratio(cancelled, scheduled),
        "sim.max_pending": tracer.counts["sim.max_pending"],
        "sim.self_s": selfs.get("sim", 0.0),
        "net.packets": packets,
        "net.packets_per_delivery": per_op(packets),
        "net.bytes": tracer.counts["net.bytes"],
        "net.drops": tracer.stat_total("net", "drops", "crash_drops"),
        "net.duplicates": tracer.stat_total("net", "duplicates"),
        "net.node_alive_calls": calls("net:PointToPointNetwork.node_alive"),
        "net.self_s": selfs.get("net", 0.0),
        "fleet.frames": tracer.stat_total("port", "received"),
        "fleet.stray_frames": tracer.stat_total("port", "stray_group"),
        "fleet.oracle_polls": calls("fleet:GroupManager.poll_oracle"),
        "fleet.create_group_s": tracer.inclusive_of("fleet:GroupManager.create_group"),
        "fleet.self_s": selfs.get("fleet", 0.0),
        "stack.casts": calls("stack:ProcessStack.cast") + calls("core:SwitchableStack.cast"),
        "stack.self_s": selfs.get("stack", 0.0),
    }
    for layer in ("sequencer", "tokenring", "reliable"):
        metrics[f"protocols.{layer}.calls"] = tracer.bucket_calls(f"protocols.{layer}")
        metrics[f"protocols.{layer}.self_s"] = selfs.get(f"protocols.{layer}", 0.0)
    metrics.update(
        {
            "protocols.reliable.retransmits": tracer.stat_total("reliable", "retransmits"),
            "core.token_hops": hops,
            "core.token_hops_per_delivery": per_op(hops),
            "core.switches": tracer.stat_total("sp", "globally_complete"),
            "core.switch_aborts": tracer.stat_total("sp", "aborts_started"),
            "core.hop_retransmits": tracer.stat_total("sp", "hop_retransmits"),
            "core.self_s": selfs.get("core", 0.0),
            "sim.monitor.calls": tracer.bucket_calls("sim.monitor"),
            "sim.monitor.self_s": selfs.get("sim.monitor", 0.0),
            "obs.bus_events": calls("obs:Bus._append"),
            "obs.self_s": selfs.get("obs", 0.0),
            "workloads.casts": tracer.counts["workloads.casts"],
            "workloads.self_s": selfs.get("workloads", 0.0),
            "sim_latency_ms": rep.sim_latency_ms or 0.0,
            "traces.universe_size": rep.detail.get("universe_size", 0),
            "traces.enumerate_s": selfs.get("traces.enumerate", 0.0),
            "traces.holds_calls": sum(
                c
                for name, c in zip(tracer.names, tracer.calls)
                if name.startswith("traces.holds:") and name.endswith(".explain")
            ),
            "traces.holds_self_s": selfs.get("traces.holds", 0.0),
            "traces.variants": tracer.counts["traces.variants.yields"],
            "traces.variants_self_s": selfs.get("traces.variants", 0.0),
            "traces.pair_candidates": candidates,
            "traces.pairs_checked": checked,
            "traces.pair_yield": ratio(checked, candidates),
            "traces.composable_self_s": selfs.get("traces.composable", 0.0),
            "traces.verify_self_s": selfs.get("traces.verify", 0.0),
            "gc.collections": sum(tracer.gc_collections),
            "gc.gen2_collections": tracer.gc_collections[2],
            "gc.pause_s": pause,
            "gc.pause_frac": ratio(pause, traced_wall),
            "other.self_s": traced_wall - sum(selfs.values()),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.overhead_frac": ratio(traced_wall - untraced_wall, untraced_wall),
            "trace.spans": tracer.span_count,
        }
    )
    return metrics


# ----------------------------------------------------------------------
# Running one workload
# ----------------------------------------------------------------------
def run_reps(run, seed: int, seconds: float, clock) -> list:
    """Repetitions of ``run`` until the next one would end past ``seconds``
    (judged by the longest so far), and at least MIN_REPS of them."""
    reps = []
    started = time.perf_counter()
    longest = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() - started + longest <= seconds:
        gc.collect()
        rep_started = time.perf_counter()
        reps.append(run(seed, clock))
        longest = max(longest, time.perf_counter() - rep_started)
    return reps


def run_traced(run, seed: int, clock):
    from perfbench.tracer import Tracer

    gc.collect()
    wall0 = time.perf_counter()
    untraced = run(seed, clock)
    untraced_wall = time.perf_counter() - wall0
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        wall0 = time.perf_counter()
        traced = run(seed, clock, tracer)
        traced_wall = time.perf_counter() - wall0
    finally:
        tracer.uninstall()
    return [untraced, traced], per_layer_metrics(tracer, traced, traced_wall, untraced_wall), tracer


def run_one(args) -> Dict[str, Any]:
    from perfbench.workloads import WORKLOADS, SetupClock

    section = "per_layer" if args.trace else "end_to_end"
    units = declared_units(section)
    run = WORKLOADS[args.workload]
    clock = SetupClock()
    clock.install()
    tracer = None
    try:
        if args.trace:
            reps, metrics, tracer = run_traced(run, args.seed, clock)
        else:
            reps = run_reps(run, args.seed, args.seconds, clock)
            metrics = end_to_end_metrics(reps)
    finally:
        clock.uninstall()
    if set(metrics) != set(units):
        raise SystemExit(
            f"perfbench: metric names drifted from BENCHMARK.json {section}: "
            f"extra {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}"
        )
    failures, unsafe = fold_reps(reps)
    attempted = len(reps[0].units)
    result = {
        "provenance": provenance(args.workload, args.seed, bool(args.trace), args.seconds),
        "digest": reps[0].digest,
        "reps": len(reps),
        "rep_times": [dict(rep.total()._asdict(), ops=rep.ops) for rep in reps],
        "detail": reps[0].detail,
        "failures": failures,
        "unsafe": unsafe,
        "error_rate": len(failures) / attempted,
        "summary": {
            "correct": not unsafe,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
            },
        },
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.join(args.out, f"{args.workload}-trace{args.trace}")
        with open(stem + ".json", "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if tracer is not None:
            tracer.write_spans(stem + "-spans.jsonl")
    return result


def print_result(result: Dict[str, Any]) -> None:
    prov = result["provenance"]
    summary = result["summary"]
    print(
        f"perfbench {prov['workload']} seed={prov['seed']} traced={int(prov['traced'])} "
        f"reps={result['reps']}"
    )
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"digest {prov['workload']} {result['digest']}")
    for index, times in enumerate(result["rep_times"]):
        print(
            f"rep {index}: ops={times['ops']} setup={times['setup_wall']:.4f}s "
            f"run={times['run_wall']:.4f}s cpu={times['run_cpu']:.4f}s"
        )
    print(
        f"check {prov['workload']}: {summary['failed']}/{summary['attempted']} units failed "
        f"(error_rate {result['error_rate']:.4f}), correct={summary['correct']}"
    )
    for unit, reason in sorted(result["failures"].items()):
        kind = "unsafe" if unit in result["unsafe"] else "failed"
        print(f"  {kind} {unit}: {reason}")
    for name, metric in summary["metrics"].items():
        clock = END_TO_END_CLOCKS.get(name) or _layer_clock(name, metric["unit"])
        print(f"metric {name} = {metric['value']} {metric['unit']} [{clock}]")
    print(json.dumps(summary))


def _layer_clock(name: str, unit: str) -> str:
    if name == "sim_latency_ms":
        return "simulated"
    if unit == "s":
        return "host-wall, traced"
    return "exact count" if unit == "count" else "derived"


# ----------------------------------------------------------------------
# Every workload, each in a child process
# ----------------------------------------------------------------------
def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out:
            command += ["--out", args.out]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(completed.stdout)
        sys.stdout.flush()
        if completed.returncode != 0:
            print(f"perfbench: workload {name} exited with {completed.returncode}", file=sys.stderr)
            return completed.returncode
        summary = json.loads(completed.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for metric, value in summary["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    # 42 is perfbench.workloads.DEFAULT_SEED, the seed of the pinned runs.
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the full JSON result (and spans)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    source = os.path.join(ROOT, "src")
    sys.path[:0] = [source, ROOT]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {source}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from {source}", file=sys.stderr)
        return 2
    print_result(run_one(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
