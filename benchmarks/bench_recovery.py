"""The checkpoint-resume recovery plane: resume vs rerun.

Checkpoints exist so a crashed experiment does not pay for its completed
epochs twice.  This bench records that as a ratio: with the last
epochs' snapshots on disk, a failure-schedule run resumed at its final epoch
boundary must produce results element-identical to re-running the
whole schedule from scratch, which is the kill-resume equivalence
contract (``repro.recovery.equivalence``) applied to the performance
path.

The ratio (``recovery_resume_speedup``, recorded and not gated): a
six-event schedule over a 40-file LRC cluster.  The resumed run
unpickles the quiescent cluster from the snapshot and never rebuilds
it, so the speedup measures the skipped load and warmup and the five
already-completed failure epochs.
"""

import tempfile

from repro.cluster import ec2_config
from repro.codes import xorbas_lrc
from repro.difftest import compare_speed
from repro.experiments.runner import run_failure_schedule
from repro.recovery import ResultCache
from repro.recovery.equivalence import assert_runs_equivalent

from conftest import record_metric, write_report

NUM_FILES = 40
NUM_NODES = 20
PATTERN = (1, 1, 2, 1, 2, 1)
SEED = 5
EVENT_GAP = 120.0


def _run(checkpoint=None, resume=False):
    return run_failure_schedule(
        "HDFS-Xorbas",
        xorbas_lrc(),
        ec2_config(num_nodes=NUM_NODES),
        [640e6] * NUM_FILES,
        PATTERN,
        seed=SEED,
        event_gap=EVENT_GAP,
        checkpoint=checkpoint,
        resume=resume,
    ).summary()


def test_resume_beats_full_rerun_with_identical_results():
    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as scratch:
        store = ResultCache(scratch)
        _run(checkpoint=store)  # leaves the final epoch's snapshot
        record = compare_speed(
            "recovery_resume",
            spec_fn=_run,
            engine_fn=lambda: _run(checkpoint=store, resume=True),
            compare=assert_runs_equivalent,
            metrics=record_metric,
            report=lambda line: write_report("recovery.txt", line),
        )
    print(
        f"\n{NUM_FILES} files, {len(PATTERN)} epochs: rerun "
        f"{record.spec_seconds:.3f}s, resume {record.engine_seconds:.3f}s "
        f"-> {record.speedup:.1f}x"
    )
