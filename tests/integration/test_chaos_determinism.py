"""Determinism regression: chaos runs are replayable bit for bit.

``run_chaos`` seeds every random stream (workload, faults, switch
schedule) purely from ``ChaosConfig.seed``, so the same config must
produce an identical :class:`ChaosResult` whether it runs inline, in a
single worker process, or fanned across a pool.  This is what makes a
chaos violation reportable as *just a seed* — and what the sweeprunner
relies on to keep its merged artifact byte-identical for any
``--workers`` value.
"""

import hashlib

from repro.testing.chaos import (
    ChaosConfig,
    CrashWindow,
    run_chaos,
    run_chaos_cell,
)
from repro.workloads.parallel import run_cells

SEEDS = (3, 11)


def config(seed):
    return ChaosConfig(
        members=4,
        seed=seed,
        duration=2.0,
        control_loss=0.05,
        control_dup=0.02,
        control_jitter=0.004,
    )


def fingerprint(result):
    """Every execution-derived field of a ChaosResult."""
    return (
        result.violations,
        result.final_protocols,
        result.casts,
        result.delivered,
        result.switches_completed,
        result.switches_aborted,
        result.counters,
        result.timeline,
        result.settle_time,
    )


def test_same_seed_same_result_inline():
    for seed in SEEDS:
        assert fingerprint(run_chaos(config(seed))) == fingerprint(
            run_chaos(config(seed))
        )


def test_chaos_results_identical_across_worker_counts():
    """Serial vs. pool-of-4: the sweep fans chaos cells across real
    subprocesses (run_cells only clamps to the cell count, not the CPU
    count), so this exercises config pickling + fresh-interpreter runs.
    """
    cells = [{"config": config(seed)} for seed in SEEDS]
    serial = [fingerprint(run_chaos(cell["config"])) for cell in cells]
    one = [
        fingerprint(r) for r in run_cells(cells, run_chaos_cell, workers=1)
    ]
    pooled = [
        fingerprint(r) for r in run_cells(cells, run_chaos_cell, workers=4)
    ]
    assert serial == one
    assert serial == pooled


def test_different_seeds_diverge():
    """Sanity check that the fingerprint has discriminating power."""
    a = fingerprint(run_chaos(config(SEEDS[0])))
    b = fingerprint(run_chaos(config(SEEDS[1])))
    assert a != b


# A lossy run in which rank 3 crashes for good mid-switch: the settle
# loop must skip the dead member, and the switch aborts.  Its exact
# fingerprint pins event order, not just replayability; the fired
# timeline (its eighth field) is pinned by digest.
PINNED_CRASH_CONFIG = dict(
    members=4,
    seed=5,
    duration=2.0,
    control_loss=0.05,
    crashes=(CrashWindow(3, 0.6),),
)
PINNED_CRASH_FINGERPRINT = (
    [],
    {0: "tok", 1: "tok", 2: "tok"},
    174,
    {0: 101, 1: 101, 2: 101},
    1,
    1,
    {
        "hops_acked": 299, "normal_tokens": 285, "stalls_detected": 17,
        "regenerated_tokens": 11, "hop_retransmits": 104, "prepared": 4,
        "duplicate_tokens": 3, "flush_held": 3, "flush_hold_strikes": 7,
        "aborts_started": 1, "switches_aborted": 6,
        "abort_rotation_complete": 1, "delivered[seq]": 362,
        "sent[seq]": 112, "switches_started": 6, "switches_completed": 3,
        "sent[tok]": 62, "early_buffered": 18, "buffered": 15,
        "initiated": 2, "vector_built": 2, "globally_complete": 1,
        "aborts_learned": 2, "suspected": 22, "hop_reroutes": 22,
        "normal_preempted": 1, "suspects_reset": 6, "sends": 2886,
        "deliveries": 2300, "drops": 28, "node_failures": 1,
        "crash_drops": 554,
    },
    "d249e5b9627fafba426ab42f9920908462973c4e3cbeb440a7ccd7b18f7c4769",
    4.0,
)


def test_lossy_crash_run_is_pinned_exactly():
    key = list(fingerprint(run_chaos(ChaosConfig(**PINNED_CRASH_CONFIG))))
    key[7] = hashlib.sha256(repr(key[7]).encode()).hexdigest()
    assert tuple(key) == PINNED_CRASH_FINGERPRINT
