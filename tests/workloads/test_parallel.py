"""Determinism of the parallel sweep runner.

The whole point of fanning sweep cells across processes is that it must
not change the numbers: every cell is hermetic and seeds purely from
its parameters, so ``workers=N`` must reproduce ``workers=1`` exactly —
down to the bytes of the merged JSON artifact.
"""

import multiprocessing
import os
import sys
import time

import pytest

from repro.errors import ShardCrashed
from repro.workloads.experiment import Figure2Config, run_figure2_sweep
from repro.workloads.parallel import (
    default_workers,
    figure2_cells,
    run_cells,
    run_figure2_sweep_parallel,
)

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")

TINY = Figure2Config(duration=1.4, seed=7)
PROTOCOLS = ("sequencer", "token")
COUNTS = [1, 2]


def _square(cell):
    return cell["x"] * cell["x"]


def test_run_cells_preserves_definition_order():
    cells = [{"x": x} for x in range(8)]
    assert run_cells(cells, _square, workers=1) == [x * x for x in range(8)]
    assert run_cells(cells, _square, workers=4) == [x * x for x in range(8)]


def _misbehave(cell):
    mode = cell.get("mode")
    if mode == "raise":
        raise ValueError("bad cell")
    if mode == "exit":
        os._exit(7)
    if mode == "hang":
        time.sleep(60)
    return cell["x"]


@pytest.mark.parametrize(
    "mode, exitcode, detail",
    [
        ("raise", 1, "ValueError: bad cell"),
        ("exit", 7, "exited before replying"),
        ("hang", None, "timed out"),
    ],
    ids=["raise", "exit", "hang"],
)
def test_run_cells_names_the_failed_cell(mode, exitcode, detail):
    cells = [{"x": x} for x in range(4)]
    cells[2]["mode"] = mode
    start = time.monotonic()
    with pytest.raises(ShardCrashed) as excinfo:
        run_cells(cells, _misbehave, workers=2, timeout=1)
    assert time.monotonic() - start < 10
    assert excinfo.value.shard == 2
    assert excinfo.value.exitcode == exitcode
    assert detail in excinfo.value.detail
    assert multiprocessing.active_children() == []


def test_default_workers_clamps():
    cores = os.cpu_count() or 1
    assert default_workers(None) == cores
    assert default_workers(0) == cores
    assert default_workers(1) == 1
    assert default_workers(10**6) == cores


def test_figure2_cells_match_serial_loop_order():
    cells = figure2_cells(PROTOCOLS, COUNTS, TINY)
    assert [(c["protocol"], c["senders"]) for c in cells] == [
        (p, k) for p in PROTOCOLS for k in COUNTS
    ]


def test_parallel_figure2_matches_serial_exactly():
    serial = run_figure2_sweep(PROTOCOLS, COUNTS, TINY)
    parallel = run_figure2_sweep_parallel(PROTOCOLS, COUNTS, TINY, workers=2)
    assert set(serial) == set(parallel)
    for protocol in PROTOCOLS:
        # LatencyResult is a frozen dataclass: == compares every field.
        assert serial[protocol] == parallel[protocol]


def test_sweeprunner_artifact_byte_identical_across_worker_counts(tmp_path):
    sys.path.insert(0, BENCH_DIR)
    try:
        import sweeprunner
    finally:
        sys.path.remove(BENCH_DIR)

    outs = []
    for workers in (1, 2):
        out = tmp_path / f"sweep-w{workers}.json"
        code = sweeprunner.main([
            "--sweep", "figure2",
            "--protocols", "sequencer",
            "--senders", "1,2",
            "--duration", "1.4",
            "--seed", "7",
            "--workers", str(workers),
            "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert b'"workers"' not in outs[0]  # nothing execution-dependent leaks
