"""E25: the vectorized FairScheduler pass against its spec, at scale.

The JobTracker's assignment pass implements Hadoop fair scheduling:
repeatedly give the next free slot to the job minimising
((running + already-assigned) / weight, submit_time, job_id).  The spec
is that greedy loop — O(slots x jobs) tuple comparisons in Python.
The per-job key sequences are strictly increasing, so the greedy order
equals one global lexsort over every (job, slot) candidate; the engine
(`plan_pass_vectorized`) computes it with one ``np.lexsort``.

The comparison (``fairscheduler_speedup``, recorded and not gated):
one assignment pass over 300 weighted jobs contending for 4,000 slots
must give a bit-identical pick sequence (same IEEE division, same
tie-breaking).
"""

import gc

import numpy as np

from repro.cluster.fairscheduler import SchedulerState, plan_pass_vectorized
from repro.difftest import assert_bit_identical, compare_speed
from repro.spec import plan_pass_seed

from conftest import record_metric, write_report

JOBS = 300
SLOTS = 4000


def compare_picks(spec_picks, engine_picks):
    assert_bit_identical(spec_picks, engine_picks, what="job pick sequence")
    assert spec_picks.size == SLOTS  # demand saturates every slot


def test_scheduler_pass_10x_faster_and_picks_identical():
    state = SchedulerState.draw(
        np.random.default_rng(0), jobs=JOBS, total_slots=SLOTS, max_pending=60
    )
    state.check()

    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        record = compare_speed(
            "fairscheduler",
            spec_fn=lambda: plan_pass_seed(state),
            engine_fn=lambda: plan_pass_vectorized(state),
            compare=compare_picks,
            metrics=record_metric,
            report=lambda line: write_report("fairscheduler.txt", line),
        )
    finally:
        gc.enable()
        gc.unfreeze()
    print(
        f"\n{JOBS} jobs x {SLOTS} slots: spec {record.spec_seconds:.3f}s, "
        f"engine {record.engine_seconds:.4f}s -> {record.speedup:.1f}x"
    )
