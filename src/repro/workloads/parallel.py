"""Deterministic process fan-out for independent cells.

A *sweep* (Figure 2, the scaling benchmark, the scenario catalog, a
chaos seed sweep) is a grid of independent cells — one simulated run
per ``(protocol, senders)`` or ``(protocol, group_size, max_batch)``
combination — and a sharded fleet is a list of group-index slices.
Each cell builds its own :class:`~repro.runtime.sim_runtime.SimRuntime`
and seeds its own :class:`~repro.sim.rng.RandomStreams` purely from the
cell parameters, so cells share no state and their results do not
depend on execution order.  :func:`run_cells` is the one process
fan-out: it forks one child per cell, at most ``workers`` at a time,
and fills the results back **in cell-definition order**, so a sweep run
with ``workers=8`` is value-identical (and, downstream, byte-identical
as a JSON artifact) to the same sweep run with ``workers=1``.

The contract a cell function must honour to stay deterministic:

* pure — everything it needs arrives in the cell mapping, everything
  it learns leaves in the (picklable) return value;
* all randomness derived from seeds carried *in the cell* (for
  Figure 2 this is ``config.seed + active_senders``, exactly what the
  serial sweep uses);
* no wall-clock reads, global counters, or filesystem side effects in
  the result (a fleet shard's timings are execution stats, recorded
  apart from its outcomes).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import ShardCrashed
from .experiment import Figure2Config, LatencyResult, run_total_order_experiment

__all__ = [
    "default_workers",
    "run_cells",
    "figure2_cells",
    "run_figure2_cell",
    "run_figure2_sweep_parallel",
]

Cell = Mapping[str, Any]


def default_workers(requested: Optional[int] = None) -> int:
    """Clamp a ``--workers`` request to something sane for this host."""
    cores = os.cpu_count() or 1
    if requested is None or requested <= 0:
        return cores
    return min(requested, cores)


def run_cells(
    cells: Iterable[Cell],
    worker: Callable[[Cell], Any],
    workers: int = 1,
    timeout: Optional[float] = None,
) -> List[Any]:
    """Run ``worker`` over every cell, in parallel when ``workers > 1``.

    Results come back in cell-definition order regardless of which
    process finished first, so callers may ``zip(cells, results)``.
    ``workers <= 1`` (or a single cell) runs inline in this process,
    which is also the reference path for determinism checks.

    Otherwise each cell runs in its own forked child, at most
    ``workers`` at a time, and sends ``(ok, value)`` back over a
    one-way pipe.  A cell that raises, a child that exits before
    replying, or a cell still running ``timeout`` wall seconds after
    its start raises :class:`~repro.errors.ShardCrashed` naming the
    cell index; no child outlives the call.
    """
    cells = list(cells)
    if workers <= 1 or len(cells) <= 1:
        return [worker(cell) for cell in cells]
    # fork, not spawn: the child inherits the worker and its cell, so
    # neither needs pickling or a re-import; only the result crosses
    # the pipe.  Callers are single-threaded simulations.
    ctx = multiprocessing.get_context("fork")
    results: List[Any] = [None] * len(cells)
    next_cell = 0
    # Each running child's recv end -> (cell index, process, start time).
    running: Dict[Any, Tuple[int, Any, float]] = {}
    try:
        while next_cell < len(cells) or running:
            while next_cell < len(cells) and len(running) < workers:
                recv, send = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_run_child, args=(send, worker, cells[next_cell])
                )
                process.start()
                send.close()  # the child's end; an open copy masks EOF
                running[recv] = (next_cell, process, time.monotonic())
                next_cell += 1
            # Cells start in index order, so the lowest running index is
            # the one whose timeout falls due first.
            oldest, __, started_at = min(running.values())
            wait_s = None
            if timeout is not None:
                wait_s = max(0.0, started_at + timeout - time.monotonic())
            ready = wait(list(running), wait_s)
            if not ready:
                raise ShardCrashed(oldest, None, f"timed out after {timeout}s")
            for recv in ready:
                index, process, __ = running.pop(recv)
                try:
                    ok, value = recv.recv()
                except EOFError:
                    process.join()
                    raise ShardCrashed(
                        index, process.exitcode, "exited before replying"
                    ) from None
                finally:
                    recv.close()
                process.join()
                if not ok:
                    raise ShardCrashed(index, process.exitcode, value)
                results[index] = value
    finally:
        for recv, (__, process, __) in running.items():
            process.terminate()
            process.join()
            recv.close()
    return results


def _run_child(conn, worker: Callable[[Cell], Any], cell: Cell) -> None:
    """Child body: run one cell, reply ``(ok, value)``, exit 1 on error."""
    try:
        conn.send((True, worker(cell)))
    except Exception as exc:
        conn.send((False, f"{type(exc).__name__}: {exc}"))
        raise SystemExit(1)
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Figure 2 cells
# ---------------------------------------------------------------------------
def figure2_cells(
    protocols: Sequence[str],
    sender_counts: Sequence[int],
    config: Figure2Config,
) -> List[Dict[str, Any]]:
    """The cell grid of :func:`run_figure2_sweep`, in its loop order."""
    return [
        {"protocol": protocol, "senders": senders, "config": config}
        for protocol in protocols
        for senders in sender_counts
    ]


def run_figure2_cell(cell: Cell) -> LatencyResult:
    """One Figure 2 point; the sweep's ``run_cells`` worker function."""
    return run_total_order_experiment(
        cell["protocol"], cell["senders"], cell["config"]
    )


def run_figure2_sweep_parallel(
    protocols: Sequence[str],
    sender_counts: Sequence[int],
    config: Figure2Config,
    workers: int = 1,
) -> Dict[str, List[LatencyResult]]:
    """Drop-in parallel replacement for :func:`run_figure2_sweep`.

    Value-identical to the serial sweep for any worker count: each cell
    seeds from ``config.seed + active_senders`` exactly as the serial
    path does, and results merge back in grid order.
    """
    cells = figure2_cells(protocols, sender_counts, config)
    results = run_cells(cells, run_figure2_cell, workers)
    merged: Dict[str, List[LatencyResult]] = {p: [] for p in protocols}
    for cell, result in zip(cells, results):
        merged[cell["protocol"]].append(result)
    return merged
