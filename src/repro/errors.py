"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of the library with a single ``except`` clause
while still being able to discriminate finer-grained failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly.

    Examples: scheduling an event in the past, or running a simulator that
    has already been stopped.
    """


class NetworkError(ReproError):
    """A network model was asked to do something impossible.

    Examples: sending from an unbound address, or to an unknown node.
    """


class StackError(ReproError):
    """A protocol stack was composed or driven incorrectly.

    Examples: pushing a header twice from the same layer, or delivering a
    message through a layer that never saw its header.
    """


class ProtocolError(StackError):
    """A protocol layer received a message that violates its invariants.

    This indicates a bug in a peer layer (or deliberate fault injection),
    e.g. a sequencer delivering out of order or a duplicate sequence number.
    """


class SwitchError(ReproError):
    """The switching protocol reached an inconsistent state.

    Examples: a SWITCH vector naming an unknown member, or a request to
    switch to a protocol slot that was never configured.
    """


class ScenarioError(ReproError):
    """A scenario spec is malformed or cannot run on the chosen runtime.

    Examples: a catalog entry missing required fields, an unknown oracle
    signal, or asking the asyncio runtime to inject simulated faults.
    """


class TraceError(ReproError):
    """A trace is malformed (e.g. duplicate Send events for one message)."""


class VerificationError(ReproError):
    """A meta-property verification run was configured incorrectly."""


class TelemetryError(ReproError):
    """A telemetry plane, SLO target, or exposition endpoint is misconfigured."""


class ShardError(ReproError):
    """A process fan-out or a sharded fleet run failed at the supervisor.

    Examples: a fleet shard reporting groups other than its hash slice,
    or a shard plan that leaves a shard empty.
    """


class ShardCrashed(ShardError):
    """A fanned-out cell raised, died or hung before returning its result.

    Raised by :func:`~repro.workloads.parallel.run_cells` for any cell —
    a sweep point or a fleet shard — so the caller reacts per cell
    instead of staring at a hung sweep.  ``shard`` is the cell's index
    (for a sharded fleet, the shard id), ``exitcode`` the child's exit
    code (``None`` when it was still alive, e.g. a timeout), and
    ``detail`` a human-readable line (for a cell that raised, the
    exception type and message).
    """

    def __init__(self, shard: int, exitcode, detail: str) -> None:
        self.shard = shard
        self.exitcode = exitcode
        self.detail = detail
        super().__init__(
            f"cell {shard} failed "
            f"(exitcode={exitcode!r}): {detail}"
        )
