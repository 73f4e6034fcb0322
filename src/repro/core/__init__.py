"""The paper's primary contribution: the switching protocol and its
surroundings.

* :mod:`repro.core.base` — the shared SP state machine (modes, counts,
  buffering, drain).
* :mod:`repro.core.switch` — the broadcast/manager SP variant.
* :mod:`repro.core.token_switch` — the token-ring SP variant (three
  rotations: PREPARE, SWITCH, FLUSH).
* :mod:`repro.core.switchable` — per-process assembly (Figure 1).
* :mod:`repro.core.oracle` / :mod:`repro.core.hybrid` /
  :mod:`repro.core.stats` — when-to-switch policies and their inputs.
* :mod:`repro.core.view_switch` — the §8 virtually-synchronous switching
  extension.
"""

from .base import ProtocolSlot, SwitchAborted, SwitchCore, SwitchMode
from .channel import ChannelEnd, SwitchableChannel
from .hybrid import AdaptiveController, SwitchDecision
from .oracle import (
    CompositeOracle,
    HysteresisOracle,
    ManualOracle,
    Oracle,
    ScheduledOracle,
    ThresholdOracle,
)
from .stats import ActivityMonitor
from .switch import BroadcastSwitchProtocol
from .switchable import (
    GroupHandle,
    ProtocolSpec,
    SwitchableStack,
    build_group_handle,
)
from .token_switch import (
    FaultToleranceConfig,
    ResilientTokenSwitchProtocol,
    TokenSwitchProtocol,
)
from .view_switch import ViewSwitchStack

__all__ = [
    "ProtocolSlot",
    "SwitchAborted",
    "SwitchCore",
    "SwitchMode",
    "FaultToleranceConfig",
    "ResilientTokenSwitchProtocol",
    "ChannelEnd",
    "SwitchableChannel",
    "AdaptiveController",
    "SwitchDecision",
    "CompositeOracle",
    "HysteresisOracle",
    "ManualOracle",
    "Oracle",
    "ScheduledOracle",
    "ThresholdOracle",
    "ActivityMonitor",
    "BroadcastSwitchProtocol",
    "GroupHandle",
    "ProtocolSpec",
    "SwitchableStack",
    "build_group_handle",
    "TokenSwitchProtocol",
    "ViewSwitchStack",
]
