"""The blocking SP variant: a §8 exploration of "other switching
protocols that possibly can support different classes of properties".

Queueing application sends during the switch (instead of routing them to
the new protocol) additionally preserves *send-restriction* properties —
Amoeba being the paper's example — because nothing can be sent until the
old protocol has fully drained.  The price is exactly the blocking the
paper's SP was designed to avoid."""

import pytest

from helpers import switch_group
from repro.core.switchable import ProtocolSpec, build_group_handle
from repro.net.ptp import LatencyMatrix, PointToPointNetwork
from repro.protocols.amoeba import AmoebaLayer
from repro.protocols.fifo import FifoLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.stack.membership import Group
from repro.traces.properties import Amoeba
from repro.traces.recorder import TraceRecorder


def blocking_group(n=4, specs=None, seed=81, latency=None):
    sim = Simulator()
    net = PointToPointNetwork(sim, n, latency=latency, rng=RandomStreams(seed))
    group = Group.of_size(n)
    specs = specs or [
        ProtocolSpec("A", lambda r: [FifoLayer()]),
        ProtocolSpec("B", lambda r: [FifoLayer()]),
    ]
    stacks = build_group_handle(
        sim, net, group, specs, initial=specs[0].name, variant="broadcast",
        block_sends_during_switch=True,
    ).stacks
    return sim, stacks


def test_sends_blocked_and_released():
    sim, stacks = blocking_group()
    got = []
    stacks[1].on_deliver(lambda m: got.append(m.body))
    stacks[0].request_switch("B")
    sim.run_until(0.0005)  # mid-switch at rank 0
    assert stacks[0].switching
    assert not stacks[0].can_send()
    stacks[0].cast("queued-mid-switch", 16)
    assert stacks[0].core.stats.get("sends_blocked") == 1
    sim.run_until(2.0)
    assert stacks[0].current_protocol == "B"
    assert got == ["queued-mid-switch"]  # released after the switch


def test_blocked_sends_preserve_submission_order():
    sim, stacks = blocking_group()
    got = []
    stacks[1].on_deliver(lambda m: got.append(m.body))
    stacks[0].cast("before", 16)
    stacks[0].request_switch("B")
    sim.run_until(0.0005)
    for i in range(3):
        stacks[0].cast(f"mid-{i}", 16)
    sim.run_until(2.0)
    assert got == ["before", "mid-0", "mid-1", "mid-2"]


def test_blocking_sp_preserves_amoeba():
    """The headline: the same scenario that violates Amoeba under the
    paper's SP holds under the blocking variant (the switch cannot
    complete before the outstanding message drains)."""
    specs = [
        ProtocolSpec("amA", lambda r: [AmoebaLayer(), TokenRingLayer()]),
        ProtocolSpec("amB", lambda r: [AmoebaLayer()]),
    ]
    latency = LatencyMatrix(4, base_latency=3e-3)
    sim, stacks = blocking_group(specs=specs, latency=latency)
    recorder = TraceRecorder(sim)
    for stack in stacks.values():
        recorder.attach(stack)

    sent_second = []

    def try_second_send():
        if sent_second:
            return
        if stacks[1].can_send():
            stacks[1].cast("second", 64)
            sent_second.append(True)
            return
        sim.schedule(0.001, try_second_send)

    sim.schedule_at(0.004, lambda: stacks[1].cast("first", 64))
    sim.schedule_at(0.005, lambda: stacks[0].request_switch("amB"))
    sim.schedule_at(0.006, try_second_send)
    sim.run_until(2.0)

    assert sent_second, "the application did eventually send again"
    assert all(s.current_protocol == "amB" for s in stacks.values())
    assert Amoeba().holds(recorder.trace()), (
        "blocking SP must preserve the Amoeba send restriction"
    )


def test_nonblocking_default_unchanged():
    sim, stacks, log = switch_group(
        3,
        [
            ProtocolSpec("A", lambda r: [FifoLayer()]),
            ProtocolSpec("B", lambda r: [FifoLayer()]),
        ],
        "A",
        "broadcast",
    )
    stacks[0].request_switch("B")
    sim.run_until(0.0005)
    assert stacks[0].switching
    assert stacks[0].can_send()  # the paper's SP: never blocked
    stacks[0].cast("flows-immediately", 16)
    assert stacks[0].core.stats.get("sends_blocked") == 0
    sim.run_until(1.0)
