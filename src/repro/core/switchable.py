"""Assembly of a switchable process stack (Figure 1).

Per process::

    Application
        │ cast / deliver
    SwitchCore  ── driven by TokenSwitchProtocol or BroadcastSwitchProtocol
     │     │  │
   ctrl  proto₁ proto₂ ...     (each on a private MULTIPLEX channel;
     │     │  │                 the control channel is made reliable)
    ───────────────
      Multiplexer
       Transport
        network

:class:`SwitchableStack` mirrors the :class:`~repro.stack.stack.ProcessStack`
application API, so the SP is *transparent*: the application cannot tell
it is running over the SP rather than over one of the protocols directly
— the paper's §1 requirement.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..errors import SwitchError
from ..net.base import Network
from ..obs.bus import Bus
from ..protocols.reliable import ReliableLayer
from ..runtime.api import Runtime
from ..sim.rng import RandomStreams
from ..stack.layer import Layer, LayerContext, compose, start_layers, stop_layers
from ..stack.membership import Group
from ..stack.message import Message, MessageId
from ..stack.multiplex import Multiplexer
from ..stack.stack import DEFAULT_BODY_SIZE
from ..stack.transport import Transport
from .base import ProtocolSlot, SwitchAborted, SwitchCore
from .switch import BroadcastSwitchProtocol
from .token_switch import (
    FaultToleranceConfig,
    ResilientTokenSwitchProtocol,
    TokenSwitchProtocol,
)

__all__ = [
    "ProtocolSpec",
    "SwitchableStack",
    "GroupHandle",
    "build_group_handle",
]

#: The mux channel reserved for the SP's own control traffic.
CONTROL_CHANNEL = 0


class ProtocolSpec:
    """A named recipe for one subordinate protocol stack.

    ``factory(rank)`` must return a fresh top-to-bottom layer list each
    time it is called (layers hold per-process state).
    """

    def __init__(
        self, name: str, factory: Callable[[int], Sequence[Layer]]
    ) -> None:
        if not name:
            raise SwitchError("protocol spec needs a non-empty name")
        self.name = name
        self.factory = factory

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProtocolSpec {self.name}>"


class SwitchableStack:
    """One process of a group running the switching protocol.

    Args:
        runtime, network, group, rank: as for ProcessStack.
        protocols: the subordinate protocols (≥ 2).
        initial: name of the protocol that starts as current.
        variant: "token" (the paper's implementation) or "broadcast".
        token_interval: NORMAL-token pacing for the token variant.
        control_factory: layers for the SP's private control channel
            (defaults to a single :class:`ReliableLayer`).
        fault_tolerance: opt into the fault-tolerant token variant
            (:class:`~repro.core.token_switch.ResilientTokenSwitchProtocol`)
            with these timeout/retry knobs.  ``None`` (default) keeps the
            seed's non-FT protocol, byte-identical on the wire.
        switch_timeout: broadcast variant only — abort a switch that has
            not completed within this many simulated seconds.
        bus: instrumentation bus shared by the run; defaults to the
            process-wide default (disabled unless the harness enabled it).
        group_id: fleet group id.  ``0`` (the default) is the single-group
            world: wire frames, mux stat keys, and obs metric names are
            byte-identical to the pre-fleet stack.
        port: a shared per-node port (``repro.fleet.port.NodePort``) that
            owns the transport and multiplexer for *many* groups on this
            rank.  ``None`` means this stack owns its own transport —
            exactly the pre-fleet wiring.
        auto_start: start layers and inject the SP token at the end of
            construction (the historical behaviour).  ``False`` builds a
            dormant stack; call :meth:`start` explicitly.
    """

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        group: Group,
        rank: int,
        protocols: Sequence[ProtocolSpec],
        initial: str,
        variant: str = "token",
        token_interval: float = 0.010,
        control_factory: Optional[Callable[[int], Sequence[Layer]]] = None,
        streams: Optional[RandomStreams] = None,
        block_sends_during_switch: bool = False,
        fault_tolerance: Optional[FaultToleranceConfig] = None,
        switch_timeout: Optional[float] = None,
        bus: Optional[Bus] = None,
        group_id: int = 0,
        port: Optional[Any] = None,
        auto_start: bool = True,
    ) -> None:
        if len(protocols) < 2:
            raise SwitchError("need at least two protocols to switch between")
        names = [spec.name for spec in protocols]
        if len(set(names)) != len(names):
            raise SwitchError(f"duplicate protocol names: {names}")
        if variant not in ("token", "broadcast"):
            raise SwitchError(f"unknown SP variant {variant!r}")

        self.runtime = runtime
        self.group = group
        self.rank = rank
        self.group_id = group_id
        self._deliver_callbacks: List[Callable[[Message], None]] = []
        self._send_callbacks: List[Callable[[Message], None]] = []
        self._started = False
        self._torn_down = False

        cpu_work = getattr(network, "cpu_work", None)
        bound_cpu = None
        if cpu_work is not None:
            bound_cpu = lambda dur, then: cpu_work(rank, dur, then)  # noqa: E731
        self.ctx = LayerContext(
            runtime,
            group,
            rank,
            streams,
            cpu_work=bound_cpu,
            bus=bus,
            group_id=group_id if group_id != 0 else None,
        )

        if port is None:
            self.transport: Optional[Transport] = Transport(network, group, rank)
            self.mux = Multiplexer(self.transport.send)
            self.transport.on_receive(self.mux.receive)
        else:
            # Shared per-node port: the transport and multiplexer belong
            # to the port and are shared with every other group on this
            # rank; this stack only owns its (group_id, channel) slice.
            self.transport = None
            self.mux = port.mux

        # --- subordinate protocol slots -------------------------------
        slots: Dict[str, ProtocolSlot] = {}
        all_layers: List[Layer] = []
        self._channel_ids: List[int] = []
        for index, spec in enumerate(protocols):
            channel_id = CONTROL_CHANNEL + 1 + index
            channel = self.mux.channel(channel_id, group=group_id)
            self._channel_ids.append(channel_id)
            layers = list(spec.factory(rank))
            top_send, bottom_receive = compose(
                layers,
                self.ctx,
                channel.send,
                lambda msg, name=spec.name: self.core.slot_deliver(name, msg),
            )
            channel.on_deliver(bottom_receive)
            slots[spec.name] = ProtocolSlot(spec.name, layers, top_send)
            all_layers.extend(layers)

        self.core = SwitchCore(
            slots,
            self._app_deliver,
            initial,
            block_sends_during_switch=block_sends_during_switch,
            obs=self.ctx.obs,
        )

        # --- private control channel ----------------------------------
        if control_factory is None:
            control_factory = lambda __: [ReliableLayer()]  # noqa: E731
        control_channel = self.mux.channel(CONTROL_CHANNEL, group=group_id)
        self._channel_ids.append(CONTROL_CHANNEL)
        control_layers = list(control_factory(rank))
        control_send, control_receive = compose(
            control_layers,
            self.ctx,
            control_channel.send,
            self._control_deliver,
        )
        control_channel.on_deliver(control_receive)
        all_layers.extend(control_layers)

        # --- the SP variant --------------------------------------------
        self.protocol: Union[TokenSwitchProtocol, BroadcastSwitchProtocol]
        if variant == "token":
            if fault_tolerance is not None:
                self.protocol = ResilientTokenSwitchProtocol(
                    self.ctx,
                    self.core,
                    control_send,
                    token_interval,
                    ft=fault_tolerance,
                )
            else:
                self.protocol = TokenSwitchProtocol(
                    self.ctx, self.core, control_send, token_interval
                )
        else:
            self.protocol = BroadcastSwitchProtocol(
                self.ctx, self.core, control_send, switch_timeout=switch_timeout
            )
        self.variant = variant
        self._all_layers = all_layers

        if auto_start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the layers and (token variant) inject the SP token.

        Idempotent: a second call is a no-op.  Called automatically at
        the end of construction unless ``auto_start=False``.
        """
        if self._started:
            return
        if self._torn_down:
            raise SwitchError(f"rank {self.rank}: cannot restart a torn-down stack")
        self._started = True
        start_layers(self._all_layers)
        if self.variant == "token":
            self.protocol.start()

    def teardown(self) -> None:
        """Stop the stack and release every shared resource it holds.

        Stops the switching protocol (tokens arriving afterwards die
        here), stops all layers (repeating timers are cancelled or their
        callbacks disarmed), removes this stack's mux channels, and — if
        the stack owns its transport — detaches the network node so it
        can be re-attached by a rebuilt stack.  Idempotent.
        """
        if self._torn_down:
            return
        self._torn_down = True
        self._started = False
        self.protocol.stop()
        stop_layers(self._all_layers)
        for channel_id in self._channel_ids:
            self.mux.remove_channel(channel_id, group=self.group_id)
        if self.transport is not None:
            self.transport.detach()

    @property
    def torn_down(self) -> bool:
        return self._torn_down

    # ------------------------------------------------------------------
    # Application API (mirrors ProcessStack — SP transparency)
    # ------------------------------------------------------------------
    def cast(self, body: Any, body_size: int = DEFAULT_BODY_SIZE) -> MessageId:
        """Multicast ``body`` to the group over the current protocol."""
        msg = self.ctx.make_message(body, body_size)
        for callback in self._send_callbacks:
            callback(msg)
        self.core.app_send(msg)
        return msg.mid

    def on_deliver(self, callback: Callable[[Message], None]) -> None:
        """Register an application deliver callback."""
        self._deliver_callbacks.append(callback)

    def on_send(self, callback: Callable[[Message], None]) -> None:
        """Register a hook observing Send events (trace recorders)."""
        self._send_callbacks.append(callback)

    def can_send(self) -> bool:
        """True when the active protocol accepts a send right now."""
        return self.core.can_send()

    def _app_deliver(self, msg: Message) -> None:
        for callback in self._deliver_callbacks:
            callback(msg)

    def _control_deliver(self, msg: Message) -> None:
        self.protocol.control_receive(msg)

    # ------------------------------------------------------------------
    # Switching API
    # ------------------------------------------------------------------
    def request_switch(self, to: str) -> None:
        """Ask this process (as manager/initiator) to switch to ``to``."""
        self.protocol.request_switch(to)

    def on_switch_aborted(
        self, callback: Callable[[SwitchAborted], None]
    ) -> None:
        """Register an abort observer (fault-tolerant variants only)."""
        hook = getattr(self.protocol, "on_switch_aborted", None)
        if hook is None:
            raise SwitchError(
                "this SP variant cannot abort; enable fault_tolerance or "
                "switch_timeout"
            )
        hook(callback)

    @property
    def last_abort(self) -> Optional[SwitchAborted]:
        """Most recent abort outcome at this member, if any."""
        return getattr(self.protocol, "last_abort", None)

    @property
    def current_protocol(self) -> str:
        return self.core.current

    @property
    def switching(self) -> bool:
        return self.core.switching

    def find_slot_layer(self, protocol: str, layer_type: type) -> Any:
        """Fetch a layer inside a named slot (testing/telemetry)."""
        for layer in self.core.slots[protocol].layers:
            if isinstance(layer, layer_type):
                return layer
        raise SwitchError(
            f"no {layer_type.__name__} in slot {protocol!r} of rank {self.rank}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SwitchableStack rank={self.rank} current={self.core.current} "
            f"variant={self.variant}>"
        )


class GroupHandle:
    """One switching group's build/start/drain/teardown lifecycle.

    A handle owns one :class:`SwitchableStack` per member and walks them
    through::

        BUILT ──start()──> STARTED ──drain()──> DRAINING ──teardown()──> TORN_DOWN

    ``teardown()`` is legal from any earlier state.  A single-group run
    is simply a fleet of size one: :func:`build_group_handle` builds a
    handle, and ``handle.stacks`` maps each member to its stack.
    """

    def __init__(
        self, group_id: int, group: Group, stacks: Dict[int, SwitchableStack]
    ) -> None:
        self.group_id = group_id
        self.group = group
        self.stacks = stacks
        self.state = "built" if not any(
            s._started for s in stacks.values()
        ) else "started"

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every member stack (idempotent)."""
        if self.state == "torn_down":
            raise SwitchError(f"group {self.group_id} is torn down")
        for stack in self.stacks.values():
            stack.start()
        if self.state == "built":
            self.state = "started"

    def drain(self) -> None:
        """Stop accepting new application casts; in-flight traffic may
        still complete (run the event loop before :meth:`teardown` to let
        it)."""
        if self.state == "torn_down":
            raise SwitchError(f"group {self.group_id} is torn down")
        self.state = "draining"

    def teardown(self) -> None:
        """Tear every member stack down and release shared resources."""
        if self.state == "torn_down":
            return
        for stack in self.stacks.values():
            stack.teardown()
        self.state = "torn_down"

    # ------------------------------------------------------------------
    # Application conveniences
    # ------------------------------------------------------------------
    def cast(
        self, rank: int, body: Any, body_size: int = DEFAULT_BODY_SIZE
    ) -> MessageId:
        """Multicast from ``rank``; refused outside the STARTED state."""
        if self.state != "started":
            raise SwitchError(
                f"group {self.group_id} does not accept casts in state "
                f"{self.state!r}"
            )
        return self.stacks[rank].cast(body, body_size)

    def request_switch(self, to: str, rank: Optional[int] = None) -> None:
        """Ask one member (default: the coordinator) to initiate a switch."""
        member = self.group.coordinator if rank is None else rank
        self.stacks[member].request_switch(to)

    def on_deliver(self, callback: Callable[[int, Message], None]) -> None:
        """Register ``callback(rank, msg)`` on every member."""
        for rank, stack in self.stacks.items():
            stack.on_deliver(lambda msg, r=rank: callback(r, msg))

    @property
    def current_protocols(self) -> Dict[int, str]:
        return {r: s.current_protocol for r, s in self.stacks.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GroupHandle id={self.group_id} members={len(self.stacks)} "
            f"state={self.state}>"
        )


def build_group_handle(
    runtime: Runtime,
    network: Network,
    group: Group,
    protocols: Sequence[ProtocolSpec],
    initial: str,
    variant: str = "token",
    token_interval: float = 0.010,
    control_factory: Optional[Callable[[int], Sequence[Layer]]] = None,
    streams: Optional[RandomStreams] = None,
    block_sends_during_switch: bool = False,
    fault_tolerance: Optional[FaultToleranceConfig] = None,
    switch_timeout: Optional[float] = None,
    bus: Optional[Bus] = None,
    group_id: int = 0,
    ports: Optional[Dict[int, Any]] = None,
    auto_start: bool = True,
) -> GroupHandle:
    """Build a :class:`GroupHandle` with one stack per group member.

    ``ports`` maps rank to a shared per-node port (see
    ``repro.fleet.port.NodePort``); omitted ranks own their transports.
    With ``auto_start=True`` (the default) each stack starts as it is
    built, preserving per-stack timer-arming order; ``auto_start=False``
    builds a dormant fleet member started later via ``handle.start()``.
    """
    master = streams or RandomStreams(0)
    stacks: Dict[int, SwitchableStack] = {}
    for rank in group:
        stacks[rank] = SwitchableStack(
            runtime,
            network,
            group,
            rank,
            protocols,
            initial,
            variant=variant,
            token_interval=token_interval,
            control_factory=control_factory,
            streams=master.fork(f"rank{rank}"),
            block_sends_during_switch=block_sends_during_switch,
            fault_tolerance=fault_tolerance,
            switch_timeout=switch_timeout,
            bus=bus,
            group_id=group_id,
            port=None if ports is None else ports.get(rank),
            auto_start=auto_start,
        )
    return GroupHandle(group_id, group, stacks)

