#!/usr/bin/env python3
"""On-line protocol upgrading (§1, second use case).

"Protocol switching can be used to upgrade networking protocols at
run-time without having to restart applications.  Even minor bug fixes
may be done in this way."

Here "v1" is a reliable-multicast deployment with conservative timers,
and "v2" is the patched build with snappier retransmission.  A
ScheduledOracle performs the maintenance-window swap while a lossy
network and a live workload keep running.  Nothing is lost, nothing is
duplicated, nothing restarts.

Run:  python examples/online_upgrade.py
"""

from repro import ProtocolSpec, Simulator, build_group_handle
from repro.core import AdaptiveController, ScheduledOracle
from repro.net import FaultPlan, PointToPointNetwork
from repro.protocols import ReliableConfig, ReliableLayer
from repro.sim import RandomStreams
from repro.stack import Group

GROUP_SIZE = 5
UPGRADE_AT = 1.0
MESSAGES = 100


def main() -> None:
    sim = Simulator()
    streams = RandomStreams(11)
    network = PointToPointNetwork(
        sim,
        GROUP_SIZE,
        faults=FaultPlan(loss_rate=0.10, reorder_jitter=1e-3),
        rng=streams,
    )
    group = Group.of_size(GROUP_SIZE)

    protocols = [
        ProtocolSpec(
            "reliable-v1",
            lambda rank: [ReliableLayer(ReliableConfig(tick_interval=0.050))],
        ),
        ProtocolSpec(
            "reliable-v2",  # the "patched" build: faster recovery
            lambda rank: [ReliableLayer(ReliableConfig(tick_interval=0.010))],
        ),
    ]
    stacks = build_group_handle(
        sim, network, group, protocols, initial="reliable-v1"
    ).stacks

    deliveries = {rank: [] for rank in group}
    for rank, stack in stacks.items():
        stack.on_deliver(
            lambda msg, rank=rank: deliveries[rank].append(msg.body)
        )

    # The maintenance window: swap protocols at t=1.0 s.
    oracle = ScheduledOracle([(UPGRADE_AT, "reliable-v2")])
    controller = AdaptiveController(stacks[0], oracle, poll_interval=0.05)
    controller.start()

    # A continuous application workload across the upgrade.
    for i in range(MESSAGES):
        sim.schedule_at(
            0.02 * (i + 1), lambda i=i: stacks[i % GROUP_SIZE].cast(i, 256)
        )

    sim.run_until(30.0)

    upgraded = [s.current_protocol for s in stacks.values()]
    print(f"protocol at every member after t={UPGRADE_AT}s window: {set(upgraded)}")
    print(f"oracle decisions: {[(d.time, d.to_protocol) for d in controller.decisions]}")

    for rank in group:
        got = sorted(deliveries[rank])
        assert got == list(range(MESSAGES)), (
            f"member {rank}: lost or duplicated messages across the upgrade"
        )
    print(f"all {MESSAGES} messages delivered exactly once at all "
          f"{GROUP_SIZE} members, across 10% loss AND the upgrade")

    # The upgrade was not a restart: the new protocol's recovery really is
    # the one handling traffic now.
    v2 = stacks[0].find_slot_layer("reliable-v2", ReliableLayer)
    assert v2.stats.get("delivered") > 0
    print("v2 build confirmed live (its delivery counters are moving)")


if __name__ == "__main__":
    main()
