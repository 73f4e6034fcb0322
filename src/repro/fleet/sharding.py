"""Process sharding: the multiplexed fleet across CPU cores.

One fleet process multiplexes thousands of groups but saturates one
core.  This module partitions the fleet's group-id space across shards
by **consistent hashing** (FNV-1a over the group id, mod shard count)
and runs each slice through the unmodified
:func:`~repro.fleet.runner.run_fleet` engine — every shard owns a full
``Runtime`` + ``GroupManager`` + its slice of the global sequencer
plan, seeded from the *global* group index, so any partition reproduces
exactly the per-group outcomes of the unpartitioned run (see
``run_fleet(indices=...)``).

Each shard is one cell of :func:`~repro.workloads.parallel.run_cells`,
the repo's one process fan-out: a forked child per shard returns its
typed :class:`~repro.fleet.runner.FleetResult` slice over a pipe, and a
shard that raises, dies or hangs surfaces as a structured
:class:`~repro.errors.ShardCrashed` instead of hanging the run.  One
shard is one cell, which ``run_cells`` runs in-process — exactly the
run the parity contract says it equals.  :func:`run_fleet_sharded`
checks that each shard reported exactly its own slice and merges the
slices into one ``FleetResult``; per-shard telemetry planes roll up
through :func:`~repro.obs.telemetry.merge.merge_payloads`.

Scaling economics: each shard simulates its slice in its own process,
so the run's critical path is the *slowest shard's* CPU time instead of
the whole fleet's.  With enough cores, elapsed wall time follows that
critical path; on fewer cores the shards time-slice one another but
the per-shard ``cpu_s`` recorded in ``shard_stats`` still measures the
parallel critical path honestly.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import ShardError
from ..workloads.parallel import run_cells
from .runner import FleetConfig, FleetResult, run_fleet

__all__ = [
    "fnv1a32",
    "plan_shards",
    "run_fleet_sharded",
    "shard_of",
]

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


def fnv1a32(value: int) -> int:
    """FNV-1a over the value's 4 little-endian bytes (u32 output)."""
    digest = _FNV_OFFSET
    for byte in int(value).to_bytes(4, "little"):
        digest = ((digest ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return digest


def shard_of(group_id: int, shards: int) -> int:
    """The shard hosting ``group_id`` under consistent hashing.

    Pure and layout-free: a group's home shard depends only on its id
    and the shard count, never on fleet size or creation order, so two
    processes (or a supervisor checking a shard's slice) always
    agree on placement.
    """
    if shards < 1:
        raise ShardError(f"shard count must be >= 1, got {shards}")
    return fnv1a32(group_id) % shards


def plan_shards(config: FleetConfig) -> List[List[int]]:
    """Partition the fleet's group *indices* across the config's shards.

    Returns one sorted index list per shard; group ``index`` carries
    wire id ``index + 1`` (id 0 is the legacy single-group frame), and
    the id — not the index — is what gets hashed.
    """
    shards = config.shards if config.shards > 0 else 1
    plan: List[List[int]] = [[] for __ in range(shards)]
    for index in range(config.groups):
        plan[shard_of(index + 1, shards)].append(index)
    empty = [sid for sid, indices in enumerate(plan) if not indices]
    if empty:
        raise ShardError(
            f"shard plan leaves shards {empty} empty: {config.groups} "
            f"groups cannot feed {shards} shards under this hash"
        )
    return plan


def _run_shard(cell: Mapping[str, Any]) -> Tuple[FleetResult, float, float]:
    """One shard's cell: its slice's result, cpu and wall seconds."""
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    result = run_fleet(cell["config"], indices=cell["indices"])
    return (
        result,
        time.process_time() - cpu_start,
        time.perf_counter() - wall_start,
    )


def run_fleet_sharded(config: FleetConfig) -> FleetResult:
    """Run the fleet partitioned across ``config.shards`` processes.

    Each shard's wall time is bounded by a generous multiple of the
    configured simulated span.  Group outcomes are identical to the
    in-process run — only ``shards``/``shard_stats`` and the wall
    economics differ.
    """
    if config.shards < 1:
        raise ShardError("run_fleet_sharded needs config.shards >= 1")
    plan = plan_shards(config)
    slices = run_cells(
        [{"config": config, "indices": indices} for indices in plan],
        _run_shard,
        workers=len(plan),
        timeout=max(60.0, (config.duration + config.settle) * 20.0),
    )
    for shard_id, indices in enumerate(plan):
        reported = [r.group_id for r in slices[shard_id][0].per_group]
        if reported != [index + 1 for index in indices]:
            raise ShardError(
                f"shard {shard_id} reported groups other than its hash slice"
            )
    return _merge(config, slices)


def _merge(
    config: FleetConfig, slices: List[Tuple[FleetResult, float, float]]
) -> FleetResult:
    """Fold per-shard slices into the one-process result shape."""
    per_group = sorted(
        (report for result, __, __ in slices for report in result.per_group),
        key=lambda report: report.group_id,
    )
    violations: List[str] = []
    stray_by_node: Dict[int, int] = {}
    pool_loads: Dict[int, int] = {}
    shard_stats: List[Dict[str, Any]] = []
    for sid, (result, cpu_s, wall_s) in enumerate(slices):
        violations.extend(
            f"shard {sid}: {violation}" for violation in result.violations
        )
        for node, count in result.stray_by_node.items():
            stray_by_node[node] = stray_by_node.get(node, 0) + count
        for rank, load in result.pool_loads.items():
            pool_loads[rank] = pool_loads.get(rank, 0) + load
        shard_stats.append(
            {
                "shard": sid,
                "groups": len(result.per_group),
                "casts": result.casts,
                "delivered": result.delivered,
                "cpu_s": cpu_s,
                "wall_s": wall_s,
            }
        )

    results = [result for result, __, __ in slices]
    telemetry: Optional[Dict[str, Any]] = None
    if config.telemetry:
        from ..obs.telemetry.merge import merge_payloads

        telemetry = merge_payloads(
            [result.telemetry for result in results],
            sources=[f"shard{sid}" for sid in range(len(results))],
        )

    delivered = sum(result.delivered for result in results)
    return FleetResult(
        runtime="sim",
        groups=config.groups,
        clients=config.clients,
        duration=config.duration,
        casts=sum(result.casts for result in results),
        delivered=delivered,
        msgs_per_s=delivered / config.duration,
        hot_groups=sum(result.hot_groups for result in results),
        hot_switched=sum(result.hot_switched for result in results),
        cold_switched=sum(result.cold_switched for result in results),
        stray_packets=sum(stray_by_node.values()),
        per_group=per_group,
        violations=violations,
        stray_by_node=dict(sorted(stray_by_node.items())),
        pool_loads=dict(sorted(pool_loads.items())),
        telemetry=telemetry,
        shards=config.shards,
        shard_stats=shard_stats,
    )
