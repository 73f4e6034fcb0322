"""The benchmark's four workloads, their output checks and digests.

Each workload runs the program through its public entry points, once per
repetition, and returns a :class:`Rep`: the work done, the host time
split into set-up and run, a digest of the simulated outcome and the
units that failed a check.  The checks are plain functions over the
program's result objects, so the tests can feed them tampered results.

Two kinds of failure are told apart.  A *failed* unit missed any check;
``failed / attempted`` is the run's error rate.  An *unsafe* unit is one
whose output is wrong rather than merely off its expected course: a
member delivering a duplicate or out of order, members disagreeing,
casts lost on a loss-free network, a Table 2 cell contradicting the
paper, or a digest that differs between repetitions of one seed.  Only
unsafe units make a run incorrect.  Adaptation misses — an oracle that
switched late, flapped or not at all, a crossover that moved — are
failures of the experiment's expected result, and the run still
reports them in its error rate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import re
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.fleet.runner import FleetConfig, FleetResult, run_fleet
from repro.runtime.sim_runtime import SimRuntime
from repro.scenarios.runner import ScenarioVerdict, run_scenario
from repro.scenarios.spec import load_catalog
from repro.stack.membership import View
from repro.stack.message import Message
from repro.traces import (
    ALL_META_PROPERTIES,
    PAPER_TABLE_2,
    Amoeba,
    Composable,
    Confidentiality,
    Integrity,
    MatrixCell,
    NoReplay,
    PrioritizedDelivery,
    Reliability,
    TotalOrder,
    VirtualSynchrony,
    compute_matrix,
    enumerate_traces,
)
from repro.workloads.experiment import (
    Figure2Config,
    LatencyResult,
    find_crossover,
    run_total_order_experiment,
)

#: The seed that reproduces the repo's pinned runs: ``Figure2Config`` and
#: ``FleetConfig`` default to 42, and so does every catalog scenario.
#: Any other seed shifts all of them by ``seed - DEFAULT_SEED``.
DEFAULT_SEED = 42

FIGURE2_PROTOCOLS = ("sequencer", "token", "hybrid")
FIGURE2_SENDERS = tuple(range(1, 11))
#: §7: the curves cross "between 5 and 6 active senders".
FIGURE2_CROSSOVER = (5, 6)

#: Simulated seconds of fleet workload.  The default profile runs 10 s;
#: 2 s keeps a repetition near 5 s of host time, so that a run repeats it
#: often enough for its pieces' minima to settle, while all 50 hot groups
#: still escalate (checked at seeds 1-10 and 42).
FLEET_DURATION = 2.0
#: The sim workloads are timed in slices of this many simulated seconds,
#: so that repetitions can be combined slice by slice.  A fleet slice
#: takes about 0.1 s of host time, a scenario slice 0.015 s and a
#: figure2 slice 0.006 s.
SLICE = 0.1

#: Every Table 2 row enumerated to this many events.  The repo's
#: ``table2_universes("fast")`` goes to 5 events on two rows, which costs
#: about 110 s per run, 89 s of it in Total Order x Composable alone.
TABLE2_MAX_EVENTS = 4
TABLE2_PROCESSES = (0, 1)
#: A Table 2 Composable cell is timed in pieces of this many composed
#: pairs, about 10 ms of host time each: Total Order x Composable alone
#: is half the workload.
TABLE2_SLICE = 50

#: Scenario violations that record an adaptation miss (the scenario's
#: ``expect`` contract in ``repro.scenarios.runner._score``).  Any other
#: violation is a correctness violation.
ADAPTATION_VIOLATIONS = (
    "expected the group on",
    "switches completed, expected at most",
    "oracle flapped",
    "no switch completed after drift phase",
    "switch took",
    "worst delivery ratio",
)


class Timing(NamedTuple):
    """Host time of one timed piece of a repetition, in seconds."""

    setup_wall: float
    setup_cpu: float
    run_wall: float
    run_cpu: float


@dataclass
class Rep:
    """One repetition of a workload.

    ``timings`` holds the host time of each timed piece — a slice of a
    figure2 cell, of a scenario or of the fleet run, a Table 2 cell or a
    slice of one — so that repetitions can be combined piece by piece.
    """

    ops: int
    timings: Dict[str, Timing]
    digest: str
    units: List[str]
    failures: Dict[str, str] = field(default_factory=dict)
    unsafe: List[str] = field(default_factory=list)
    sim_latency_ms: Optional[float] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def total(self) -> Timing:
        return Timing(*(sum(column) for column in zip(*self.timings.values())))


@dataclass
class Checked:
    """Check outcome: failing units with a reason, and the unsafe ones."""

    failures: Dict[str, str] = field(default_factory=dict)
    unsafe: List[str] = field(default_factory=list)

    def fail(self, unit: str, reason: str, unsafe: bool = False) -> None:
        if unit in self.failures:
            self.failures[unit] += f"; {reason}"
        else:
            self.failures[unit] = reason
        if unsafe and unit not in self.unsafe:
            self.unsafe.append(unit)


def digest_of(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Host time: set-up versus run
# ----------------------------------------------------------------------
class SetupClock:
    """Splits a runner call into set-up and run at its first simulated step.

    The runners build their network, stacks and groups and then call
    ``SimRuntime.run_until`` to start the simulation.  While installed,
    this stamps the host clocks at the first such call; it is the only
    hook an untraced run carries.  Given simulated instants to mark, it
    also schedules one no-op event at each, which stamps the clocks
    again, so that one long run can be timed in pieces.  The extra
    events change no program state and no order among the program's own
    events (the outcome digest checks this).
    """

    def __init__(self) -> None:
        self.stamps: List[Tuple[float, float]] = []
        self.marks: Sequence[float] = ()
        self._original: Optional[Callable] = None

    def _stamp(self) -> None:
        self.stamps.append((time.perf_counter(), time.process_time()))

    def install(self) -> None:
        original = vars(SimRuntime)["run_until"]
        self._original = original
        clock = self

        def run_until(runtime, until, _run=original):
            if not clock.stamps:
                clock._stamp()
                for instant in clock.marks:
                    runtime.schedule_at(instant, clock._stamp)
            return _run(runtime, until)

        SimRuntime.run_until = run_until

    def uninstall(self) -> None:
        if self._original is not None:
            SimRuntime.run_until = self._original
            self._original = None

    def timed(self, call: Callable[[], Any], marks: Sequence[float] = ()) -> Tuple[Any, List[Timing]]:
        """Run ``call``; returns its result and its host time in pieces.

        Without ``marks`` there is one piece.  With them, the run is cut
        at each marked simulated instant; the first piece carries the
        set-up time.
        """
        self.stamps = []
        self.marks = marks
        wall0, cpu0 = _now()
        try:
            result = call()
        finally:
            self.marks = ()
        points = self.stamps or [_now()]
        points.append(_now())
        return result, pieces_between((wall0, cpu0), points)


def _now() -> Tuple[float, float]:
    return time.perf_counter(), time.process_time()


def pieces_between(start: Tuple[float, float], points: List[Tuple[float, float]]) -> List[Timing]:
    """Host time between consecutive ``points``; the first piece also
    carries the set-up time from ``start`` to the first point."""
    pieces = [
        Timing(0.0, 0.0, wall_b - wall_a, cpu_b - cpu_a)
        for (wall_a, cpu_a), (wall_b, cpu_b) in zip(points, points[1:])
    ]
    (wall_s, cpu_s), (wall0, cpu0) = points[0], start
    pieces[0] = pieces[0]._replace(setup_wall=wall_s - wall0, setup_cpu=cpu_s - cpu0)
    return pieces


@contextlib.contextmanager
def compose_stamps(every: int):
    """Stamps the host clocks before every ``every``-th call of
    ``Composable.compose`` into the list it yields.

    A Composable cell checks its pairs in a fixed order, so the stamps
    cut it into the same pieces in every repetition.  Whatever
    ``Composable.compose`` is on entry (the plain method or a tracer
    wrapper) is restored on exit.
    """
    raw = vars(Composable)["compose"]
    compose = raw.__func__
    stamps: List[Tuple[float, float]] = []
    calls = 0

    def stamped(tr1, tr2):
        nonlocal calls
        calls += 1
        if calls % every == 0:
            stamps.append(_now())
        return compose(tr1, tr2)

    Composable.compose = staticmethod(stamped)
    try:
        yield stamps
    finally:
        Composable.compose = raw


def _error(exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {last[0].filename}:{last[0].lineno}" if last else ""
    return f"{type(exc).__name__}: {exc}{where}"


# ----------------------------------------------------------------------
# figure2
# ----------------------------------------------------------------------
def figure2_unit(protocol: str, senders: int) -> str:
    return f"{protocol}@{senders}"


def figure2_crossover(results: Dict[Tuple[str, int], LatencyResult]) -> Optional[Tuple[int, int]]:
    """Where the sequencer and token curves cross (None if they do not,
    or if a cell is missing)."""
    seq = [results.get(("sequencer", k)) for k in FIGURE2_SENDERS]
    tok = [results.get(("token", k)) for k in FIGURE2_SENDERS]
    return None if None in seq + tok else find_crossover(seq, tok)


def check_figure2(results: Dict[Tuple[str, int], LatencyResult]) -> Checked:
    """The two §7 results every cell must keep supporting.

    The sequencer and token-ring curves cross between 5 and 6 senders
    (else every plain cell fails: the crossover is a property of the two
    curves together), and the hybrid switches 0 times at 1-5 senders and
    at least once at 6-10.
    """
    checked = Checked()
    plain = [(protocol, k) for protocol in ("sequencer", "token") for k in FIGURE2_SENDERS]
    crossover = figure2_crossover(results)
    if all(key in results for key in plain) and crossover != FIGURE2_CROSSOVER:
        for protocol, k in plain:
            checked.fail(
                figure2_unit(protocol, k),
                f"curves cross at {crossover}, expected {FIGURE2_CROSSOVER}",
            )
    for k in FIGURE2_SENDERS:
        result = results.get(("hybrid", k))
        if result is None:
            continue
        high = k > FIGURE2_CROSSOVER[0]
        if high and result.switches < 1:
            checked.fail(figure2_unit("hybrid", k), "hybrid did not switch above the crossover")
        if not high and result.switches != 0:
            checked.fail(
                figure2_unit("hybrid", k),
                f"hybrid switched {result.switches} times below the crossover",
            )
    return checked


def run_figure2(seed: int, clock: SetupClock, tracer=None) -> Rep:
    config = Figure2Config(seed=seed)
    timings: Dict[str, Timing] = {}
    results: Dict[Tuple[str, int], LatencyResult] = {}
    errors: Dict[str, str] = {}
    for protocol in FIGURE2_PROTOCOLS:
        for k in FIGURE2_SENDERS:
            unit = figure2_unit(protocol, k)
            try:
                result, pieces = clock.timed(
                    lambda: run_total_order_experiment(protocol, k, config),
                    marks=slice_marks(config.duration),
                )
            except Exception as exc:  # a crashed cell is a failed unit
                errors[unit] = _error(exc)
                continue
            timings.update((f"{unit}[{index}]", piece) for index, piece in enumerate(pieces))
            results[(protocol, k)] = result
    checked = check_figure2(results)
    for unit, reason in errors.items():
        checked.fail(unit, reason, unsafe=True)
    hybrid = [results[key] for key in results if key[0] == "hybrid"]
    samples = sum(r.samples for r in hybrid)
    latency = sum(r.mean_ms * r.samples for r in hybrid) / samples if samples else None
    outcome = [
        [p, k, r.mean_ms, r.median_ms, r.p90_ms, r.samples, r.switches]
        for (p, k), r in sorted(results.items())
    ]
    return Rep(
        ops=sum(r.samples for r in results.values()),
        timings=timings,
        digest=digest_of([outcome, sorted(errors)]),
        units=[figure2_unit(p, k) for p in FIGURE2_PROTOCOLS for k in FIGURE2_SENDERS],
        failures=checked.failures,
        unsafe=checked.unsafe,
        sim_latency_ms=latency,
        detail={"crossover": figure2_crossover(results)},
    )


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def check_scenarios(verdicts: Sequence[ScenarioVerdict]) -> Checked:
    """A scenario fails when its verdict is not ok; it is unsafe when a
    violation is outside the adaptation contract."""
    checked = Checked()
    for verdict in verdicts:
        for violation in verdict.violations:
            adaptation = any(marker in violation for marker in ADAPTATION_VIOLATIONS)
            checked.fail(verdict.scenario, violation, unsafe=not adaptation)
    return checked


def scenario_specs(seed: int):
    """The catalog's sim entries, each reseeded by ``seed - DEFAULT_SEED``."""
    offset = seed - DEFAULT_SEED
    return [
        dataclasses.replace(spec, seed=spec.seed + offset)
        for spec in load_catalog().values()
        if "sim" in spec.runtimes
    ]


def run_scenarios(seed: int, clock: SetupClock, tracer=None) -> Rep:
    timings: Dict[str, Timing] = {}
    verdicts: List[ScenarioVerdict] = []
    errors: Dict[str, str] = {}
    specs = scenario_specs(seed)
    for spec in specs:
        try:
            verdict, pieces = clock.timed(
                lambda: run_scenario(spec, "sim"), marks=slice_marks(spec.duration)
            )
        except Exception as exc:
            errors[spec.name] = _error(exc)
            continue
        timings.update((f"{spec.name}[{index}]", piece) for index, piece in enumerate(pieces))
        verdicts.append(verdict)
    checked = check_scenarios(verdicts)
    for unit, reason in errors.items():
        checked.fail(unit, reason, unsafe=True)
    p90s = [v.p90_latency_ms for v in verdicts if v.p90_latency_ms is not None]
    return Rep(
        ops=sum(sum(v.delivered.values()) for v in verdicts),
        timings=timings,
        digest=digest_of([[v.to_dict() for v in verdicts], sorted(errors)]),
        units=[spec.name for spec in specs],
        failures=checked.failures,
        unsafe=checked.unsafe,
        sim_latency_ms=statistics.fmean(p90s) if p90s else None,
    )


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
_DISAGREE = re.compile(r"^group (\d+) members disagree")


def fleet_unit(group_id: int) -> str:
    return f"g{group_id}"


def check_fleet(result: FleetResult, members: int) -> Checked:
    """Per-group verdicts over a fleet run on the loss-free mesh."""
    checked = Checked()
    for violation in result.violations:
        match = _DISAGREE.match(violation)
        if match:
            checked.fail(fleet_unit(int(match.group(1))), violation, unsafe=True)
    noisy = {node for node, count in result.stray_by_node.items() if count}
    for report in result.per_group:
        unit = fleet_unit(report.group_id)
        if report.hot and report.final_protocol != "tokenring":
            checked.fail(unit, f"hot group ended on {report.final_protocol}")
        if not report.hot and report.switched:
            checked.fail(unit, "cold group switched")
        if report.delivered != report.casts * members:
            checked.fail(
                unit,
                f"{report.casts} casts but {report.delivered} member deliveries "
                f"(want {report.casts * members})",
                unsafe=True,
            )
        strays = sorted(noisy.intersection(report.members))
        if strays:
            checked.fail(unit, f"stray frames on member nodes {strays}", unsafe=True)
    return checked


def slice_marks(end: float) -> List[float]:
    """Every SLICE simulated seconds before ``end``."""
    count = int(round(end / SLICE))
    return [SLICE * index for index in range(1, count)]


def run_fleet_workload(seed: int, clock: SetupClock, tracer=None) -> Rep:
    config = FleetConfig(duration=FLEET_DURATION, seed=seed)
    units = [fleet_unit(index + 1) for index in range(config.groups)]
    try:
        result, pieces = clock.timed(
            lambda: run_fleet(config), marks=slice_marks(config.duration + config.settle)
        )
    except Exception as exc:
        reason = _error(exc)
        return Rep(0, {}, digest_of(reason), units, {unit: reason for unit in units}, list(units))
    checked = check_fleet(result, config.members)
    p99s = [r.p99_ms for r in result.per_group if r.p99_ms is not None]
    return Rep(
        ops=result.delivered,
        timings={f"fleet[{index}]": piece for index, piece in enumerate(pieces)},
        digest=digest_of(result.as_dict()),
        units=units,
        failures=checked.failures,
        unsafe=checked.unsafe,
        sim_latency_ms=statistics.median(p99s) if p99s else None,
        detail={"hot_switched": result.hot_switched, "cold_switched": result.cold_switched},
    )


# ----------------------------------------------------------------------
# table2
# ----------------------------------------------------------------------
def _messages(count: int, senders=(0, 1), shared_bodies: bool = False) -> List[Message]:
    # The message sets of repro.traces.universes.table2_universes.
    out = []
    for i in range(count):
        sender = senders[i % len(senders)]
        body = f"b{i % 2}" if shared_bodies else f"b{i}"
        out.append(Message(sender=sender, mid=(sender, i), body=body, body_size=1))
    return out


def table2_rows():
    """(property, messages) in Table 2 row order."""
    view1 = Message(sender=0, mid=(0, -1), body=View(1, (0,)), body_size=1)
    view2 = Message(sender=0, mid=(0, -2), body=View(2, (0, 1)), body_size=1)
    vs_data = Message(sender=1, mid=(1, 0), body="d", body_size=1)
    return [
        (TotalOrder(), _messages(2)),
        (Integrity(trusted={0}), _messages(2)),
        (Confidentiality(trusted={0}), _messages(2)),
        (Reliability(receivers=set(TABLE2_PROCESSES)), _messages(2)),
        (PrioritizedDelivery(master=0), _messages(2)),
        (Amoeba(), _messages(3, senders=(0, 0, 1))),
        (VirtualSynchrony(), [view1, view2, vs_data]),
        (NoReplay(), _messages(3, shared_bodies=True)),
    ]


def table2_unit(cell: MatrixCell) -> str:
    return f"{cell.property_name}/{cell.meta_name}"


def check_table2(cells: Sequence[MatrixCell]) -> Checked:
    """A cell fails when it contradicts a paper-pinned cell, or when it
    is refuted without a counterexample to show for it."""
    checked = Checked()
    for cell in cells:
        unit = table2_unit(cell)
        if cell.agrees_with_paper is False:
            checked.fail(unit, f"paper says {cell.paper_says}, computed {cell.verdict.preserved}", unsafe=True)
        if not cell.verdict.preserved and cell.verdict.counterexample is None:
            checked.fail(unit, "refuted without a counterexample", unsafe=True)
    return checked


def run_table2(seed: int, clock: SetupClock, tracer=None) -> Rep:
    # The trace universes draw no randomness: every seed runs the same work.
    # Each cell is timed on its own, a Composable cell in pieces: a row's
    # set-up is its universe's enumeration, and each of its six cells is
    # compute_matrix over one meta-property.
    span = tracer.span if tracer is not None else (lambda name, bucket: contextlib.nullcontext())
    timings: Dict[str, Timing] = {}
    cells: List[MatrixCell] = []
    universe_size = 0
    with compose_stamps(TABLE2_SLICE) as stamps:
        for prop, messages in table2_rows():
            start = _now()
            with span("traces.enumerate", "traces.enumerate"):
                universe = list(enumerate_traces(messages, TABLE2_PROCESSES, TABLE2_MAX_EVENTS))
            for meta in ALL_META_PROPERTIES:
                points = [_now()]
                stamps.clear()
                with span("traces.verify", "traces.verify"):
                    cells.extend(compute_matrix([(prop, universe)], [meta], PAPER_TABLE_2))
                points += stamps
                points.append(_now())
                # The row's first cell carries the enumeration as its set-up.
                for index, piece in enumerate(pieces_between(start or points[0], points)):
                    timings[f"{prop.name}/{meta.name}[{index}]"] = piece
                start = None
            universe_size += len(universe)
    checked = check_table2(cells)
    outcome = [
        [
            table2_unit(c),
            c.verdict.preserved,
            c.verdict.traces_checked,
            c.verdict.variants_checked,
            None if c.verdict.counterexample is None else c.verdict.counterexample.explanation,
        ]
        for c in cells
    ]
    return Rep(
        ops=sum(c.verdict.variants_checked for c in cells),
        timings=timings,
        digest=digest_of(outcome),
        units=[table2_unit(c) for c in cells],
        failures=checked.failures,
        unsafe=checked.unsafe,
        detail={"universe_size": universe_size},
    )


WORKLOADS: Dict[str, Callable[..., Rep]] = {
    "figure2": run_figure2,
    "scenarios": run_scenarios,
    "fleet": run_fleet_workload,
    "table2": run_table2,
}
