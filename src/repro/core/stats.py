"""Runtime signals feeding the switching oracle.

The paper's §7 experiment switches between total-order protocols based on
the number of *active senders* (the x-axis of Figure 2).  The oracle is
an orthogonal black box to the SP; these monitors provide the inputs the
shipped oracle policies consume.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Set, Tuple

from ..runtime.api import Clock
from ..stack.message import Message

__all__ = ["ActivityMonitor"]


class ActivityMonitor:
    """Tracks which senders were active in a sliding time window.

    Attach with ``stack.on_deliver(monitor.observe)``; query
    :meth:`active_senders` from the oracle.
    """

    def __init__(self, clock: Clock, window: float = 0.5) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.clock = clock
        self.window = window
        self._events: Deque[Tuple[float, int]] = deque()

    def observe(self, msg: Message) -> None:
        """Record one delivered message (attach to ``on_deliver``)."""
        self._events.append((self.clock.now, msg.sender))
        self._expire()

    def _expire(self) -> None:
        horizon = self.clock.now - self.window
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()

    def active_senders(self) -> int:
        """Distinct senders observed within the window."""
        self._expire()
        senders: Set[int] = {sender for __, sender in self._events}
        return len(senders)

    def delivery_rate(self) -> float:
        """Deliveries per second over the window."""
        self._expire()
        return len(self._events) / self.window

