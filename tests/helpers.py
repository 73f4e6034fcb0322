"""Shared test utilities: group builders and delivery collectors."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.switchable import ProtocolSpec, SwitchableStack, build_group_handle
from repro.core.token_switch import FaultToleranceConfig
from repro.stack.layer import Layer
from repro.net.faults import FaultPlan
from repro.net.ptp import LatencyMatrix, PointToPointNetwork
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.stack.membership import Group
from repro.stack.message import Message
from repro.stack.stack import ProcessStack, build_group


class DeliveryLog:
    """Per-rank record of delivered (sender, mid, body) triples."""

    def __init__(self, ranks) -> None:
        self.by_rank: Dict[int, List[Tuple[int, tuple, object]]] = {
            r: [] for r in ranks
        }

    def attach_all(self, stacks) -> None:
        for rank, stack in stacks.items():
            stack.on_deliver(
                lambda msg, rank=rank: self.by_rank[rank].append(
                    (msg.sender, msg.mid, msg.body)
                )
            )

    def bodies(self, rank: int) -> List[object]:
        return [body for __, __, body in self.by_rank[rank]]

    def mids(self, rank: int) -> List[tuple]:
        return [mid for __, mid, __ in self.by_rank[rank]]

    def all_agree(self) -> bool:
        logs = list(self.by_rank.values())
        return all(log == logs[0] for log in logs)

    def same_sets(self) -> bool:
        sets = [set(mids) for mids in map(self._mid_set, self.by_rank)]
        return all(s == sets[0] for s in sets)

    def _mid_set(self, rank: int):
        return [mid for __, mid, __ in self.by_rank[rank]]


def ptp_group(
    num: int,
    layer_factory: Callable[[int], Sequence],
    faults: Optional[FaultPlan] = None,
    latency: Optional[LatencyMatrix] = None,
    seed: int = 1,
) -> Tuple[Simulator, Dict[int, ProcessStack], DeliveryLog]:
    """A group of plain stacks over a point-to-point network."""
    sim = Simulator()
    streams = RandomStreams(seed)
    net = PointToPointNetwork(sim, num, latency=latency, faults=faults, rng=streams)
    group = Group.of_size(num)
    stacks = build_group(sim, net, group, layer_factory, streams=streams)
    log = DeliveryLog(group)
    log.attach_all(stacks)
    return sim, stacks, log


def switch_group(
    num: int,
    specs: Sequence[ProtocolSpec],
    initial: str,
    variant: str = "token",
    faults: Optional[FaultPlan] = None,
    latency: Optional[LatencyMatrix] = None,
    token_interval: float = 0.002,
    seed: int = 1,
    fault_tolerance: Optional[FaultToleranceConfig] = None,
    switch_timeout: Optional[float] = None,
    control_factory: Optional[Callable[[int], Sequence[Layer]]] = None,
) -> Tuple[Simulator, Dict[int, SwitchableStack], DeliveryLog]:
    """A group of switchable stacks over a point-to-point network."""
    sim = Simulator()
    streams = RandomStreams(seed)
    net = PointToPointNetwork(sim, num, latency=latency, faults=faults, rng=streams)
    group = Group.of_size(num)
    stacks = build_group_handle(
        sim, net, group, specs, initial=initial, variant=variant,
        token_interval=token_interval, streams=streams,
        fault_tolerance=fault_tolerance, switch_timeout=switch_timeout,
        control_factory=control_factory,
    ).stacks
    log = DeliveryLog(group)
    log.attach_all(stacks)
    return sim, stacks, log
