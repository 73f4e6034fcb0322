"""The fleet runtime: thousands of switching groups in one process.

A single-group run owns one transport, one multiplexer, and one stack
per member.  The fleet runtime multiplexes *groups*: every node runs one
:class:`~repro.fleet.port.NodePort` (one network attach, one
group-keyed multiplexer), and a :class:`~repro.fleet.manager.GroupManager`
builds/starts/tears down :class:`~repro.core.switchable.GroupHandle`\\ s
over those shared ports.  Wire frames carry a varint group id (see
``net/codec.py``), so thousands of groups share one set of sockets.

The :class:`~repro.core.oracle.FleetOracle` closes the loop: it reads
per-group delivery rates off the shared obs bus (group-labelled
``fleet.delivered[g<id>]`` counters) and escalates hot groups —
sequencer to token ring — without touching cold ones.

One process still caps out at one core; ``repro.fleet.sharding``
partitions the group-id space by consistent hashing, runs each slice as
a :func:`~repro.workloads.parallel.run_cells` cell (a forked child per
shard) and merges the slices back into one
:class:`~repro.fleet.runner.FleetResult`.
"""

from .manager import GroupManager
from .pool import SequencerPool
from .port import NodePort
from .runner import (
    FleetConfig,
    FleetResult,
    GroupReport,
    plan_sequencers,
    run_fleet,
)
from .sharding import plan_shards, run_fleet_sharded, shard_of

__all__ = [
    "FleetConfig",
    "FleetResult",
    "GroupManager",
    "GroupReport",
    "NodePort",
    "SequencerPool",
    "plan_sequencers",
    "plan_shards",
    "run_fleet",
    "run_fleet_sharded",
    "shard_of",
]
