"""How every runner drives a switching group's run, kept in one place.

The switch demo, the scenario runner, the chaos harness and the fleet
sweep all open a network (:func:`open_mesh`), record a group's
deliveries (:class:`DeliveryLedger`), let it converge once the workload
stops (:func:`settle`) and check it (:func:`check_group`).  Each runner
keeps only its own workload and verdicts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.switchable import GroupHandle
from ..net.base import Network
from ..net.faults import FaultPlan
from ..net.ptp import LatencyMatrix, PointToPointNetwork
from ..obs.bus import Bus
from ..runtime import AsyncioRuntime, Runtime, make_runtime
from ..sim.rng import RandomStreams

__all__ = [
    "DeliveryLedger", "check_agreement", "check_group", "open_mesh", "settle"
]


@contextmanager
def open_mesh(
    runtime_name: str,
    nodes: int,
    streams: RandomStreams,
    latency: float,
    faults: Optional[FaultPlan] = None,
    bus: Optional[Bus] = None,
    base_port: Optional[int] = None,
) -> Iterator[Tuple[Runtime, Network]]:
    """Yield ``(runtime, network)`` for ``nodes`` ranks on the named runtime.

    Sim gets the point-to-point mesh (``latency`` seconds one way,
    ``faults``, randomness from ``streams``); asyncio gets localhost UDP
    sockets from ``base_port`` (``None``: the UDP default) and is closed
    when the block exits.  A ``bus`` is clocked by the runtime and
    instruments the network.
    """
    runtime = make_runtime(runtime_name)
    if bus is not None:
        bus.clock = runtime
    try:
        network: Network
        if isinstance(runtime, AsyncioRuntime):
            from ..net.udp import DEFAULT_BASE_PORT, UdpNetwork

            network = UdpNetwork(
                runtime,
                nodes,
                base_port=DEFAULT_BASE_PORT if base_port is None else base_port,
            )
            runtime.run_task(network.open())
        else:
            network = PointToPointNetwork(
                runtime,
                nodes,
                latency=LatencyMatrix(nodes, latency),
                faults=faults,
                rng=streams,
            )
        if bus is not None:
            network.instrument(bus)
        yield runtime, network
    finally:
        if isinstance(runtime, AsyncioRuntime):
            runtime.close()


class DeliveryLedger:
    """What each member of a group delivered, and where each cast went.

    ``deliveries`` maps rank to the message ids it delivered, in order;
    ``cast_slot`` maps each cast's message id to the protocol slot it
    was sent on.  One deliver hook and one send hook per member.
    """

    def __init__(self, handle: GroupHandle) -> None:
        self.deliveries: Dict[int, List[tuple]] = {}
        self.cast_slot: Dict[tuple, str] = {}
        for rank, stack in handle.stacks.items():
            delivered: List[tuple] = []
            self.deliveries[rank] = delivered
            stack.on_deliver(
                lambda msg, append=delivered.append: append(msg.mid)
            )
            stack.on_send(
                lambda msg, core=stack.core, cast_slot=self.cast_slot: (
                    cast_slot.__setitem__(msg.mid, core.send_slot)
                )
            )

    def delivered(self, ranks: Iterable[int]) -> Dict[int, int]:
        """Deliveries per member, for ``ranks``."""
        return {rank: len(self.deliveries[rank]) for rank in ranks}


def settle(
    runtime: Runtime,
    handle: GroupHandle,
    windows: int,
    window: float,
    alive: Optional[Callable[[int], bool]] = None,
) -> Tuple[float, List[str]]:
    """Run up to ``windows`` windows of ``window`` seconds until converged.

    A group has converged when no member is mid-switch and every member
    is on the same protocol; ``alive`` restricts both tests to the
    members it accepts, so crashed members are left out.  Each window
    runs before its test: casts still in flight when the workload
    stopped must land before the oracle looks.

    Returns the time settling ended and, if the group never converged,
    the violation saying so.
    """
    stacks = handle.stacks
    for __ in range(windows):
        runtime.run_for(window)
        live = [r for r in stacks if alive is None or alive(r)]
        if not any(stacks[r].switching for r in live) and (
            len({stacks[r].current_protocol for r in live}) == 1
        ):
            return runtime.now, []
    return runtime.now, [
        f"group did not converge within {windows} settle windows "
        f"(still switching: {[r for r in stacks if stacks[r].switching]})"
    ]


def check_agreement(finals: Dict[int, str], who: str) -> List[str]:
    """A violation naming ``who`` if ``finals`` holds more than one protocol."""
    if len(set(finals.values())) > 1:
        return [f"{who} disagree on the protocol: {finals}"]
    return []


def check_group(
    handle: GroupHandle,
    ledger: DeliveryLedger,
    live: Optional[Sequence[int]] = None,
    who: str = "members",
) -> List[str]:
    """The switching group's correctness oracle over the ``live`` members.

    * **Agreement**: every live member ends on the same protocol.
    * **No duplicates**: no member delivers a message twice.
    * **Per-slot order agreement**: both subordinate protocols are
      totally ordered, so two members that both delivered messages m1
      and m2 cast on the same slot agree on their relative order — under
      crashes, aborts and reverts alike.  Cross-slot interleavings may
      legitimately differ after an abort.

    ``live`` defaults to every member; ``who`` names them in the
    agreement violation.
    """
    stacks = handle.stacks
    live = list(stacks) if live is None else list(live)
    violations = check_agreement(
        {r: stacks[r].current_protocol for r in live}, who
    )
    for rank in live:
        mids = ledger.deliveries[rank]
        dupes = len(mids) - len(set(mids))
        if dupes:
            violations.append(f"member {rank} delivered {dupes} duplicates")

    slots = list(next(iter(stacks.values())).core.slots)
    positions = {
        rank: {mid: index for index, mid in enumerate(ledger.deliveries[rank])}
        for rank in live
    }
    for i, a in enumerate(live):
        for b in live[i + 1 :]:
            pos_a, pos_b = positions[a], positions[b]
            common = sorted(set(pos_a) & set(pos_b), key=pos_a.__getitem__)
            for slot in slots:
                order_b = [
                    pos_b[m] for m in common if ledger.cast_slot.get(m) == slot
                ]
                if order_b != sorted(order_b):
                    violations.append(
                        f"members {a} and {b} disagree on slot {slot!r} "
                        f"delivery order"
                    )
    return violations
