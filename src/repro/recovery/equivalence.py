"""Kill-resume equivalence: the recovery plane's headline guarantee.

The crash-safety contract is behavioural, not structural: a run that is
killed at an epoch boundary and resumed from its snapshot must finish
with *element-identical* results to the run that was never interrupted —
the same event log field for field, the same metric counters, per-node
attributions and time-series buckets bit for bit, the same fsck and the
same data-loss record.  This module states that contract as a
spec/engine pair in the difftest idiom: :func:`run_uninterrupted` is the
executable specification, :func:`run_with_kill_resume` the
crash-and-restore engine, and :func:`assert_runs_equivalent` the
comparator.  The nightly chaos sweep (:func:`run_chaos_sweep`) drives
the pair over seeded random kill epochs with corrupted-snapshot
injection and reports every trial.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..cluster import EC2_FAILURE_PATTERN, ec2_config
from ..cluster.metrics import MetricsCollector, TimeSeries
from ..codes.lrc import xorbas_lrc
from ..codes.reed_solomon import rs_10_4
from ..experiments.runner import SchemeRunSummary, run_failure_schedule
from .chaos import FaultPlan, InjectedCrash
from .store import ResultCache

__all__ = [
    "assert_runs_equivalent",
    "run_chaos_sweep",
    "run_uninterrupted",
    "run_with_kill_resume",
]

_SCHEME_CODES = {"HDFS-RS": rs_10_4, "HDFS-Xorbas": xorbas_lrc}


def run_uninterrupted(
    scheme: str = "HDFS-Xorbas",
    num_files: int = 3,
    seed: int = 5,
    num_nodes: int = 20,
    pattern: tuple[int, ...] = (1, 2),
    event_gap: float = 120.0,
) -> SchemeRunSummary:
    """The specification: one failure schedule, never interrupted."""
    run = run_failure_schedule(
        scheme,
        _SCHEME_CODES[scheme](),
        ec2_config(num_nodes=num_nodes),
        [640e6] * num_files,
        tuple(pattern),
        seed=seed,
        event_gap=event_gap,
    )
    return run.summary()


def run_with_kill_resume(
    checkpoint_dir: str | Path,
    scheme: str = "HDFS-Xorbas",
    num_files: int = 3,
    seed: int = 5,
    num_nodes: int = 20,
    pattern: tuple[int, ...] = (1, 2),
    event_gap: float = 120.0,
    kill_epoch: int = 1,
    corrupt_epochs: frozenset[int] = frozenset(),
) -> SchemeRunSummary:
    """The engine: run to ``kill_epoch``, die, restore, run to the end.

    The first attempt checkpoints every epoch and is killed by an
    :class:`InjectedCrash` right after writing the ``kill_epoch``
    snapshot (optionally corrupting the snapshots in ``corrupt_epochs``
    first, which forces the resume to fall back to an older one).  The
    second attempt resumes from the newest valid snapshot; the chaos
    marker files make the kill fire exactly once, so it completes.
    """
    plan = FaultPlan(
        seed=seed,
        kill_epochs=frozenset({kill_epoch}),
        corrupt_epochs=frozenset(corrupt_epochs),
    )
    common = dict(
        scheme=scheme,
        code=_SCHEME_CODES[scheme](),
        config=ec2_config(num_nodes=num_nodes),
        file_sizes=[640e6] * num_files,
        pattern=tuple(pattern),
        seed=seed,
        event_gap=event_gap,
        checkpoint=ResultCache(checkpoint_dir),
        fault_plan=plan,
    )
    try:
        run_failure_schedule(**common)
    except InjectedCrash:
        pass  # the planned kill; everything before it is on disk
    else:
        raise AssertionError(
            f"fault plan did not fire: kill_epoch={kill_epoch} "
            f"never reached in pattern {tuple(pattern)!r}"
        )
    run = run_failure_schedule(**common, resume=True)
    return run.summary()


def _series_buckets(series: TimeSeries) -> dict[int, float]:
    return dict(series._buckets)


def _assert_metrics_equal(a: MetricsCollector, b: MetricsCollector) -> None:
    assert a.hdfs_bytes_read == b.hdfs_bytes_read
    assert a.network_out_bytes == b.network_out_bytes
    assert a.network_in_bytes == b.network_in_bytes
    assert a.bytes_written == b.bytes_written
    assert dict(a.disk_read_by_node) == dict(b.disk_read_by_node)
    assert dict(a.network_out_by_node) == dict(b.network_out_by_node)
    for name in ("network_series", "disk_series", "cpu_busy_series"):
        series_a, series_b = getattr(a, name), getattr(b, name)
        assert series_a.bucket_width == series_b.bucket_width, name
        assert _series_buckets(series_a) == _series_buckets(series_b), name
    assert a.events == b.events


def assert_runs_equivalent(
    uninterrupted: SchemeRunSummary, resumed: SchemeRunSummary
) -> None:
    """Bit-identical equality across every surface a run reports.

    Exact ``==`` throughout — no tolerances.  The resumed run replays
    the same floating-point operations in the same order, so anything
    short of equality is a restore bug.
    """
    assert uninterrupted.scheme == resumed.scheme
    assert uninterrupted.events == resumed.events
    _assert_metrics_equal(uninterrupted.metrics, resumed.metrics)
    assert uninterrupted.fsck == resumed.fsck
    assert uninterrupted.data_loss_events == resumed.data_loss_events


def run_chaos_sweep(
    checkpoint_dir: str | Path,
    trials: int = 5,
    base_seed: int = 0,
    scheme: str = "HDFS-Xorbas",
    num_files: int = 3,
    num_nodes: int = 20,
    pattern: tuple[int, ...] = EC2_FAILURE_PATTERN,
    event_gap: float = 120.0,
    corruptions: int = 1,
) -> dict[str, Any]:
    """Seeded chaos campaign: random kill epochs + snapshot corruption.

    Each trial draws a fault plan from its seed (one kill, plus
    ``corruptions`` corrupted snapshots), runs the kill-resume engine in
    its own checkpoint directory, and checks equivalence against the
    uninterrupted specification.  Returns a JSON-serialisable report;
    trials that fail equivalence (or crash) are recorded, not raised,
    so the nightly artifact always shows the full campaign.
    """
    root = Path(checkpoint_dir)
    report: dict[str, Any] = {
        "schema": 1,
        "scheme": scheme,
        "pattern": list(pattern),
        "trials": [],
    }
    for trial in range(trials):
        seed = base_seed + trial
        plan = FaultPlan.draw(seed, num_epochs=len(pattern), kills=1)
        (kill_epoch,) = plan.kill_epochs
        # Corrupt the snapshot the resume would read first: that forces
        # the checksum-detect-and-fall-back path (or a from-scratch
        # restart when the kill lands on epoch 0).  Corrupting any other
        # epoch would leave a file nothing ever reads.
        corrupt = frozenset({kill_epoch}) if corruptions > 0 else frozenset()
        entry: dict[str, Any] = {
            "seed": seed,
            "kill_epoch": kill_epoch,
            "corrupt_epochs": sorted(corrupt),
        }
        try:
            spec = run_uninterrupted(
                scheme=scheme,
                num_files=num_files,
                seed=seed,
                num_nodes=num_nodes,
                pattern=pattern,
                event_gap=event_gap,
            )
            resumed = run_with_kill_resume(
                root / f"trial{trial:03d}",
                scheme=scheme,
                num_files=num_files,
                seed=seed,
                num_nodes=num_nodes,
                pattern=pattern,
                event_gap=event_gap,
                kill_epoch=kill_epoch,
                corrupt_epochs=corrupt,
            )
            assert_runs_equivalent(spec, resumed)
        except Exception as exc:  # recorded per-trial, campaign continues
            entry["equivalent"] = False
            entry["error"] = repr(exc)
        else:
            entry["equivalent"] = True
            entry["totals"] = resumed.totals()
        report["trials"].append(entry)
    report["num_trials"] = trials
    report["num_equivalent"] = sum(t["equivalent"] for t in report["trials"])
    report["all_equivalent"] = report["num_equivalent"] == trials
    return report
