"""The fleet sweep: thousands of groups, one process, one artifact.

``run_fleet`` drives a whole fleet through one run: it lays groups out
over a fixed set of nodes (members chosen round-robin), pool-balances
each group's sequencer, aggregates each group's simulated clients into
compound-rate Poisson senders (superposition: N clients at rate r are
one stream at rate N·r), and wires a
:class:`~repro.core.oracle.FleetOracle` that reads per-group delivery
rates off a metrics bus and escalates *hot* groups — and only hot
groups — from sequencer to token ring mid-run.

The same engine serves both runtimes:

* ``runtime="sim"`` — deterministic virtual time over the point-to-point
  model; the full 1000-group / 100k-client sweep runs here.
* ``runtime="asyncio"`` — wall clock over real localhost UDP; a smoke
  size proves the group-id wire format and the shared ports against the
  kernel's network stack.

``benchmarks/bench_fleet.py`` and ``repro fleet`` are thin shells over
:func:`run_fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.oracle import FleetOracle, RateMeter
from ..core.switchable import GroupHandle, ProtocolSpec
from ..errors import ReproError, SwitchError
from ..obs.bus import Bus
from ..protocols.reliable import ReliableLayer
from ..protocols.sequencer import SequencerLayer
from ..protocols.tokenring import TokenRingLayer
from ..sim.rng import RandomStreams
from ..sim.seeding import fleet_group_streams, fleet_sender_stream
from ..stack.layer import Layer
from ..stack.membership import Group
from ..workloads.drive import check_agreement, open_mesh
from ..workloads.generator import PoissonSender
from ..workloads.latency import LatencyProbe
from .manager import GroupManager

__all__ = [
    "FleetConfig",
    "FleetResult",
    "GroupReport",
    "group_members",
    "plan_sequencers",
    "run_fleet",
]

SLOT_NAMES = ("sequencer", "tokenring")


def group_members(index: int, members: int, nodes: int) -> List[int]:
    """Round-robin layout: group ``index`` gets ``members`` distinct
    consecutive nodes starting at ``(index * members) % nodes``."""
    start = (index * members) % nodes
    return sorted((start + offset) % nodes for offset in range(members))


def plan_sequencers(config: "FleetConfig") -> List[int]:
    """The fleet's global sequencer placement, as a pure function.

    Replays the pool walk the single-process runner performs — one
    least-loaded :meth:`SequencerPool.assign` per group, in group-index
    order — without touching any live manager.  Every shard replays the
    same plan and records only its own slice, so a group's sequencer
    rank never depends on which process hosts it and per-shard pool
    loads merge back to the global layout.
    """
    from .pool import SequencerPool

    pool = SequencerPool()
    return [
        pool.assign(group_members(index, config.members, config.nodes))
        for index in range(config.groups)
    ]


@dataclass
class FleetConfig:
    """Parameters of one fleet sweep.

    Attributes:
        runtime: "sim" (virtual time) or "asyncio" (wall clock + UDP).
        groups: number of switching groups.
        members: members per group.
        nodes: nodes (network ranks) the fleet is laid out over.
        clients: total simulated clients, split evenly across groups;
            each group's client population is folded into compound-rate
            Poisson senders (one per member) by superposition.
        client_rate: casts/second of one (cold) client.
        hot_fraction: fraction of groups that run hot.
        hot_multiplier: hot groups' clients send this many times faster.
        duration: seconds of workload (simulated or wall, per runtime).
        warmup: latency samples before this horizon are discarded.
        seed: master seed (workload + stack RNG forks).
        body_size: application payload bytes.
        token_interval: SP NORMAL-token pacing.
        hold_cost: token-ring per-hold CPU cost — paces idle rings so a
            thousand of them fit one event loop.
        high_threshold: per-group delivered-rate (member-deliveries/s)
            above which the oracle escalates to the token ring.
        oracle_poll: seconds between fleet oracle polls.
        settle: seconds after the workload stops for switches to finish.
        base_port: first UDP port (asyncio runtime only).
        latency: one-way latency of the simulated mesh (sim only).
        telemetry: grow a live :class:`TelemetryPlane` over the run
            (off by default: an unasked run is byte-identical to the
            pre-telemetry runner).
        telemetry_window: aggregation window seconds.
        telemetry_history: rolled windows retained per group.
        expo_port: serve ``/metrics`` + ``/snapshot`` over localhost
            HTTP on this port (asyncio runtime only; 0 = kernel-picked).
        slo_p99_ms / slo_switch_s / slo_ratio: optional SLO budgets
            (delivery-latency p99 ceiling in ms, time-to-switch ceiling
            in seconds, delivery-ratio floor).
        shards: worker processes the fleet is partitioned across by
            consistent group-id hashing (``repro.fleet.sharding``).
            0 = classic in-process run; N >= 1 runs each shard as a
            ``run_cells`` cell, a lone shard in-process (sim runtime
            only).
    """

    runtime: str = "sim"
    groups: int = 1000
    members: int = 3
    nodes: int = 48
    clients: int = 100_000
    client_rate: float = 0.02
    hot_fraction: float = 0.05
    hot_multiplier: float = 50.0
    duration: float = 10.0
    warmup: float = 0.5
    seed: int = 42
    body_size: int = 64
    token_interval: float = 0.25
    hold_cost: float = 0.05
    high_threshold: float = 50.0
    oracle_poll: float = 0.5
    settle: float = 2.0
    base_port: int = 47310
    latency: float = 1e-3
    telemetry: bool = False
    telemetry_window: float = 1.0
    telemetry_history: int = 60
    expo_port: Optional[int] = None
    slo_p99_ms: Optional[float] = None
    slo_switch_s: Optional[float] = None
    slo_ratio: Optional[float] = None
    shards: int = 0

    def __post_init__(self) -> None:
        if self.shards < 0:
            raise ReproError("shards must be >= 0 (0 = in-process)")
        if self.shards > 0 and self.runtime != "sim":
            raise ReproError(
                "process sharding needs the sim runtime; the asyncio "
                "smoke proves the wire format in one process"
            )
        if self.shards > self.groups:
            raise ReproError(
                f"cannot split {self.groups} groups across "
                f"{self.shards} shards"
            )
        if self.groups < 1:
            raise ReproError("fleet needs at least one group")
        if self.members < 2:
            raise ReproError("groups need at least two members")
        if self.members > self.nodes:
            raise ReproError(
                f"cannot place {self.members} distinct members on "
                f"{self.nodes} nodes"
            )
        if self.clients < self.groups:
            raise ReproError("need at least one client per group")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ReproError("hot_fraction must be in [0, 1]")
        if self.hot_multiplier < 1.0:
            raise ReproError("hot_multiplier must be >= 1")
        if self.warmup >= self.duration:
            raise ReproError("warmup must end before the run does")
        if self.telemetry_window <= 0:
            raise ReproError("telemetry_window must be positive")
        if self.telemetry_history < 1:
            raise ReproError("telemetry_history must be >= 1")
        if self.expo_port is not None:
            if not self.telemetry:
                raise ReproError("expo_port needs telemetry=True")
            if self.runtime != "asyncio":
                raise ReproError(
                    "the exposition endpoint needs the asyncio runtime; "
                    "under sim use the poll API (snapshot/--telemetry-json)"
                )

    # ------------------------------------------------------------------
    # Derived layout
    # ------------------------------------------------------------------
    @property
    def clients_per_group(self) -> int:
        return self.clients // self.groups

    @property
    def hot_count(self) -> int:
        return min(self.groups, max(1, round(self.groups * self.hot_fraction)))

    def is_hot(self, index: int) -> bool:
        """Hot groups are evenly spaced over the id range (deterministic)."""
        if self.hot_fraction <= 0.0:
            return False
        stride = max(1, self.groups // self.hot_count)
        return index % stride == 0 and index // stride < self.hot_count

    def group_rate(self, index: int) -> float:
        """One group's aggregate cast rate (msgs/s across its members)."""
        rate = self.clients_per_group * self.client_rate
        if self.is_hot(index):
            rate *= self.hot_multiplier
        return rate


@dataclass
class GroupReport:
    """Per-group outcome of a fleet sweep."""

    group_id: int
    hot: bool
    members: List[int]
    sequencer: int
    casts: int
    delivered: int
    p99_ms: Optional[float]
    final_protocol: str
    switched: bool

    def as_dict(self) -> Dict[str, object]:
        return {
            "group_id": self.group_id,
            "hot": self.hot,
            "members": self.members,
            "sequencer": self.sequencer,
            "casts": self.casts,
            "delivered": self.delivered,
            "p99_ms": self.p99_ms,
            "final_protocol": self.final_protocol,
            "switched": self.switched,
        }


@dataclass
class FleetResult:
    """Outcome of one fleet sweep, with per-group and aggregate views."""

    runtime: str
    groups: int
    clients: int
    duration: float
    casts: int
    delivered: int
    msgs_per_s: float
    hot_groups: int
    hot_switched: int
    cold_switched: int
    stray_packets: int
    per_group: List[GroupReport] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    stray_by_node: Dict[int, int] = field(default_factory=dict)
    pool_loads: Dict[int, int] = field(default_factory=dict)
    telemetry: Optional[Dict[str, object]] = None
    shards: int = 0
    shard_stats: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "runtime": self.runtime,
            "groups": self.groups,
            "clients": self.clients,
            "duration": self.duration,
            "casts": self.casts,
            "delivered": self.delivered,
            "msgs_per_s": self.msgs_per_s,
            "hot_groups": self.hot_groups,
            "hot_switched": self.hot_switched,
            "cold_switched": self.cold_switched,
            "stray_packets": self.stray_packets,
            "stray_by_node": {
                str(node): count
                for node, count in sorted(self.stray_by_node.items())
            },
            "pool_loads": {
                str(node): load
                for node, load in sorted(self.pool_loads.items())
            },
            "violations": list(self.violations),
            "per_group": [report.as_dict() for report in self.per_group],
        }
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        if self.shards > 0:
            payload["shards"] = self.shards
            payload["shard_stats"] = [dict(s) for s in self.shard_stats]
        return payload

    def summary(self) -> str:
        lines = [
            f"fleet: runtime={self.runtime} groups={self.groups} "
            f"clients={self.clients} duration={self.duration}s",
            f"  traffic: casts={self.casts} delivered={self.delivered} "
            f"aggregate={self.msgs_per_s:.0f} msgs/s",
            f"  oracle:  {self.hot_switched}/{self.hot_groups} hot groups "
            f"switched to token ring; {self.cold_switched} cold groups "
            f"switched (want 0)",
        ]
        noisy = {n: c for n, c in sorted(self.stray_by_node.items()) if c}
        ports_line = (
            f"  ports:   {len(self.stray_by_node)} node ports, "
            f"stray-group drops={self.stray_packets}"
        )
        if noisy:
            detail = " ".join(f"n{n}={c}" for n, c in noisy.items())
            ports_line += f" ({detail})"
        lines.append(ports_line)
        if self.pool_loads:
            loads = list(self.pool_loads.values())
            lines.append(
                f"  pool:    sequencers on {len(self.pool_loads)} nodes "
                f"(load min={min(loads)} max={max(loads)} per node)"
            )
        if self.telemetry is not None:
            fleet = self.telemetry.get("snapshot", {}).get("fleet", {})
            slo = fleet.get("slo", {})
            lines.append(
                f"  telem:   windows={fleet.get('windows_rolled', 0)} "
                f"escalations={fleet.get('escalations', 0)} "
                f"captures={fleet.get('captures', 0)} "
                f"slo-burn={slo.get('burn_minutes', 0.0):.2f}min"
            )
        if self.shards > 0:
            cpu = max(
                (s.get("cpu_s", 0.0) for s in self.shard_stats), default=0.0
            )
            where = (
                f"{self.shards} worker processes"
                if self.shards > 1
                else "1, in-process"
            )
            lines.append(
                f"  shards:  {where}, critical-path cpu={cpu:.2f}s"
            )
        if self.violations:
            lines.append("  VIOLATIONS:")
            lines.extend(f"    - {v}" for v in self.violations)
        else:
            lines.append("  oracle verdicts hold: hot switched, cold stayed")
        return "\n".join(lines)


def _specs(
    sequencer_rank: int, config: FleetConfig, reliable: bool
) -> List[ProtocolSpec]:
    """Both slots of one group; ``reliable`` adds NAK/retransmit under
    each order layer (needed on real UDP, pure timer load on the
    loss-free simulated mesh)."""

    def with_reliable(order_layer: Layer) -> List[Layer]:
        layers: List[Layer] = [order_layer]
        if reliable:
            layers.append(ReliableLayer())
        return layers

    return [
        ProtocolSpec(
            "sequencer",
            lambda r: with_reliable(SequencerLayer(sequencer=sequencer_rank)),
        ),
        ProtocolSpec(
            "tokenring",
            lambda r: with_reliable(TokenRingLayer(hold_cost=config.hold_cost)),
        ),
    ]


def run_fleet(
    config: Optional[FleetConfig] = None,
    bus: Optional[Bus] = None,
    indices: Optional[Sequence[int]] = None,
) -> FleetResult:
    """Drive one fleet sweep; see the module docstring for the shape.

    ``indices`` restricts the run to a slice of the fleet's global
    group-index space (a shard worker owns such a slice; see
    ``repro.fleet.sharding``).  Group ids, sequencer placement, and all
    per-group RNG streams are derived from the *global* index, so any
    partition of the index space reproduces exactly the per-group
    outcomes of the unpartitioned run.
    """
    config = config or FleetConfig()
    streams = RandomStreams(config.seed)
    with open_mesh(
        config.runtime,
        config.nodes,
        streams,
        config.latency,
        base_port=config.base_port,
    ) as (runtime, network):
        # The fleet bus carries the per-group delivery counters the oracle
        # reads.  Metrics only: max_events=0 keeps the event list empty
        # even if a caller-supplied bus arrives enabled.
        fleet_bus = bus if bus is not None else Bus(clock=runtime, max_events=0)
        fleet_bus.clock = runtime

        oracle = FleetOracle(
            metric_factory=lambda gid: RateMeter(
                lambda: runtime.now,
                lambda: fleet_bus.metrics.counter(f"fleet.delivered[g{gid}]"),
            ),
            high_threshold=config.high_threshold,
            low_protocol=SLOT_NAMES[0],
            high_protocol=SLOT_NAMES[1],
        )
        manager = GroupManager(runtime, network, oracle=oracle)

        plane = (
            _telemetry_plane(config, runtime, fleet_bus, oracle, manager)
            if config.telemetry
            else None
        )
        server = None
        if config.expo_port is not None:
            from ..obs.telemetry.expo import TelemetryServer

            server = TelemetryServer(plane, port=config.expo_port)
            runtime.run_task(server.open())

        try:
            return _drive(
                runtime, manager, fleet_bus, config, streams, plane, server,
                indices=indices,
            )
        finally:
            if server is not None:
                runtime.run_task(server.aclose())


def _telemetry_plane(
    config: FleetConfig, runtime, fleet_bus: Bus, oracle, manager
):
    """The live telemetry plane over the fleet bus, with the config's SLOs."""
    from ..obs.telemetry import SLOTarget, TelemetryConfig, TelemetryPlane

    slos = []
    if config.slo_p99_ms is not None:
        slos.append(
            SLOTarget("delivery-p99", "delivery_p99_ms", config.slo_p99_ms)
        )
    if config.slo_switch_s is not None:
        slos.append(
            SLOTarget(
                "time-to-switch", "switch_duration_s", config.slo_switch_s
            )
        )
    if config.slo_ratio is not None:
        slos.append(
            SLOTarget("delivery-ratio", "delivery_ratio", config.slo_ratio)
        )
    plane = TelemetryPlane(
        runtime,
        fleet_bus,
        TelemetryConfig(
            window=config.telemetry_window,
            history=config.telemetry_history,
            slos=slos,
        ),
    )
    plane.attach_oracle(oracle)
    plane.attach_manager(manager)
    return plane


def _drive(
    runtime,
    manager: GroupManager,
    fleet_bus: Bus,
    config: FleetConfig,
    streams: RandomStreams,
    plane=None,
    server=None,
    indices: Optional[Sequence[int]] = None,
) -> FleetResult:
    reliable = config.runtime != "sim"
    full_fleet = indices is None
    indices = range(config.groups) if full_fleet else sorted(indices)
    plan = plan_sequencers(config)
    handles: Dict[int, GroupHandle] = {}
    probes: Dict[int, LatencyProbe] = {}
    casts: Dict[int, int] = {}
    hot: Dict[int, bool] = {}
    sequencers: Dict[int, int] = {}
    senders: List[PoissonSender] = []

    for index in indices:
        members = group_members(index, config.members, config.nodes)
        sequencer_rank = manager.assign_sequencer(
            members, rank=plan[index], group_id=index + 1
        )
        handle = manager.create_group(
            members,
            _specs(sequencer_rank, config, reliable),
            initial=SLOT_NAMES[0],
            token_interval=config.token_interval,
            control_factory=None if reliable else (lambda __: []),
            streams=fleet_group_streams(streams, index),
            group_id=index + 1,
        )
        gid = handle.group_id
        handles[gid] = handle
        hot[gid] = config.is_hot(index)
        sequencers[gid] = sequencer_rank
        casts[gid] = 0

        # Delivery counting: one group-labelled scope per group feeds
        # both the oracle's rate meter and the final per-group report.
        scope = fleet_bus.scoped(None, gid)
        if plane is not None:
            coordinator = handle.stacks[handle.group.coordinator]
            plane.watch_group(
                gid,
                members=config.members,
                hot=hot[gid],
                protocol=lambda c=coordinator: c.current_protocol,
                sequencer=sequencer_rank,
            )
            coordinator.core.on_switch_complete(
                lambda old, new, gid=gid: plane.note_switch(gid, old, new)
            )
            try:
                # Aborts exist only on fault-tolerant SP variants; the
                # fleet's plain token choreography cannot abort, so the
                # hook is best-effort.
                coordinator.on_switch_aborted(
                    lambda outcome, gid=gid: plane.note_abort(
                        gid, reason=outcome.reason, phase=outcome.phase
                    )
                )
            except SwitchError:
                pass
        # The probe computes each delivery's latency exactly once; with
        # telemetry on, the plane rides that computation as the probe's
        # sink instead of re-deriving it from the payload timestamp.
        probe = LatencyProbe(
            runtime,
            warmup=config.warmup,
            sink=None if plane is None else plane.delivery_hook(gid),
        )
        probes[gid] = probe
        for rank, stack in handle.stacks.items():
            # One fused hook per direction: the scope count and the
            # probe observation share a single dispatch per delivery.
            def deliver(
                msg, rank=rank, observe=probe.observe, count=scope.count
            ):
                count("fleet.delivered")
                observe(rank, msg)

            stack.on_deliver(deliver)
            if plane is None:

                def send(msg, gid=gid):
                    casts[gid] += 1

            else:

                def send(msg, gid=gid, note=plane.cast_hook(gid)):
                    casts[gid] += 1
                    note()

            stack.on_send(send)
            # Poisson superposition: this member's share of the group's
            # client population, folded into one compound-rate stream.
            sender = PoissonSender(
                runtime,
                stack,
                rate=config.group_rate(index) / config.members,
                rng=fleet_sender_stream(streams, index, rank),
                body_size=config.body_size,
                stop=config.duration,
            )
            sender.start()
            senders.append(sender)

    manager.start_oracle_polling(config.oracle_poll)
    if plane is not None:
        plane.start()

    runtime.run_until(config.duration)
    for sender in senders:
        sender.stop()
    runtime.run_for(config.settle)
    manager.stop_oracle_polling()
    if plane is not None:
        plane.stop()
        plane.roll()  # flush the partial window into the history

    # ------------------------------------------------------------------
    # Report + verdicts
    # ------------------------------------------------------------------
    violations: List[str] = []
    per_group: List[GroupReport] = []
    total_casts = 0
    total_delivered = 0
    hot_switched = 0
    cold_switched = 0
    for gid, handle in handles.items():
        finals = handle.current_protocols
        violations += check_agreement(finals, f"group {gid} members")
        final = finals[handle.group.coordinator]
        switched = final == SLOT_NAMES[1]
        if switched:
            if hot[gid]:
                hot_switched += 1
            else:
                cold_switched += 1
        delivered = fleet_bus.metrics.counter(f"fleet.delivered[g{gid}]")
        probe = probes[gid]
        per_group.append(
            GroupReport(
                group_id=gid,
                hot=hot[gid],
                members=list(handle.group.members),
                sequencer=sequencers[gid],
                casts=casts[gid],
                delivered=delivered,
                p99_ms=(
                    probe.quantile_ms(0.99) if probe.latency.count else None
                ),
                final_protocol=final,
                switched=switched,
            )
        )
        total_casts += casts[gid]
        total_delivered += delivered

    hot_total = sum(1 for is_hot in hot.values() if is_hot)
    if hot_switched < hot_total:
        violations.append(
            f"only {hot_switched}/{hot_total} hot groups escalated to "
            f"{SLOT_NAMES[1]}"
        )
    if cold_switched:
        violations.append(f"{cold_switched} cold groups switched (want 0)")
    stray_by_node = {
        node: port.stats.get("stray_group")
        for node, port in sorted(manager.ports.items())
    }
    stray = sum(stray_by_node.values())

    telemetry: Optional[Dict[str, object]] = None
    if plane is not None:
        scrape_payload = None
        if server is not None:
            from ..obs.telemetry.expo import scrape

            # Self-scrape the live endpoint over a real HTTP round trip
            # while the loop is still up: CI validates exposition
            # without a second process.
            scrape_payload = runtime.run_task(
                scrape(server.host, server.port)
            )
        telemetry = {
            "schema_version": 1,
            "kind": "telemetry",
            "source": "poll",
            "snapshot": plane.snapshot(),
            "prometheus": plane.prometheus(),
            "escalations": list(plane.escalations),
        }
        if scrape_payload is not None:
            telemetry["scrape"] = scrape_payload

    return FleetResult(
        runtime=runtime.name,
        groups=config.groups if full_fleet else len(handles),
        clients=(
            config.clients
            if full_fleet
            else config.clients_per_group * len(handles)
        ),
        duration=config.duration,
        casts=total_casts,
        delivered=total_delivered,
        msgs_per_s=total_delivered / config.duration,
        hot_groups=hot_total,
        hot_switched=hot_switched,
        cold_switched=cold_switched,
        stray_packets=stray,
        per_group=per_group,
        violations=violations,
        stray_by_node=stray_by_node,
        pool_loads=dict(manager.pool.loads),
        telemetry=telemetry,
    )
