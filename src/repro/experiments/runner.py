"""Shared experiment-orchestration helpers.

The paper's failure experiments follow one script (Section 5.2): load
files, RAID them, then trigger failure events one at a time, giving the
cluster "sufficient time to complete the repair process" so measurements
for distinct events are isolated.  ``run_failure_schedule`` reproduces
that procedure against a simulated cluster.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..codes.base import ErasureCode
from ..cluster import (
    BlockFixer,
    ClusterConfig,
    FailureEventRecord,
    FailureInjector,
    HadoopCluster,
)
from ..cluster.blocks import BlockId
from ..cluster.metrics import MetricsCollector
from ..recovery import (
    FaultPlan,
    InjectedCrash,
    ResultCache,
    checkpoint_key,
    source_fingerprint,
)
from .parallel import config_hash

__all__ = [
    "QuiesceTimeout",
    "SchemeRun",
    "SchemeRunSummary",
    "build_loaded_cluster",
    "make_schedule_injector",
    "run_failure_schedule",
    "schedule_run_key",
]

#: Checkpoints kept per run: the newest, plus one to fall back to when
#: the newest is corrupt.
CHECKPOINTS_KEPT = 2


def _run_totals(
    events: list[FailureEventRecord], metrics: MetricsCollector
) -> dict[str, float]:
    """The headline totals both run views report, computed one way."""
    return {
        "blocks_lost": sum(e.blocks_lost for e in events),
        "hdfs_bytes_read": metrics.hdfs_bytes_read,
        "network_out_bytes": metrics.network_out_bytes,
        "repair_minutes": sum(e.repair_duration for e in events) / 60.0,
    }


@dataclass
class SchemeRunSummary:
    """The measurements of one schedule run, detached from the cluster.

    A :class:`SchemeRun` holds the live simulation (whose event queue is
    full of closures and cannot cross a process boundary); this summary
    carries everything the figures consume — events, metric series,
    config, final health — and pickles cleanly, so it is what the
    parallel runner ships back from workers and what the on-disk cache
    stores.
    """

    scheme: str
    config: ClusterConfig
    events: list[FailureEventRecord]
    metrics: MetricsCollector
    fsck: dict[str, int]
    data_loss_events: list[BlockId]

    def totals(self) -> dict[str, float]:
        return _run_totals(self.events, self.metrics)


@dataclass
class SchemeRun:
    """Everything measured while driving one cluster through a schedule."""

    scheme: str
    cluster: HadoopCluster
    fixer: BlockFixer
    events: list[FailureEventRecord] = field(default_factory=list)

    @property
    def metrics(self):
        return self.cluster.metrics

    @property
    def config(self) -> ClusterConfig:
        return self.cluster.config

    def totals(self) -> dict[str, float]:
        return _run_totals(self.events, self.metrics)

    def summary(self) -> SchemeRunSummary:
        """Freeze the measurements into a picklable summary."""
        return SchemeRunSummary(
            scheme=self.scheme,
            config=self.cluster.config,
            events=list(self.events),
            metrics=self.cluster.metrics,
            fsck=self.cluster.fsck(),
            data_loss_events=list(self.cluster.data_loss_events),
        )


def build_loaded_cluster(
    code: ErasureCode,
    config: ClusterConfig,
    file_sizes: list[float],
    seed: int = 0,
) -> HadoopCluster:
    """A cluster with the given files created and already RAIDed."""
    cluster = HadoopCluster(code, config, seed=seed)
    for index, size in enumerate(file_sizes):
        cluster.create_file(f"file{index:05d}", size)
    cluster.raid_all_instant()
    return cluster


def make_schedule_injector(cluster: HadoopCluster, seed: int) -> FailureInjector:
    """The failure injector for a schedule run.

    ``ClusterConfig.failure_seed``, when set, pins the failure
    randomness regardless of the experiment seed (the injector derives
    it from the cluster); otherwise the stream follows the schedule
    seed via the historical ``seed + 99`` derivation, kept verbatim so
    cached experiment results remain valid.
    """
    if cluster.config.failure_seed is not None:
        return FailureInjector(cluster)
    return FailureInjector(cluster, rng=np.random.default_rng(seed + 99))


class QuiesceTimeout(RuntimeError):
    """Repairs outlasted the simulated budget (too few nodes, or stuck)."""


def _quiescent(cluster: HadoopCluster, fixer: BlockFixer) -> bool:
    # Dead-but-undetected nodes still hold blocks the NameNode will soon
    # declare missing — the failure event is not over until they are
    # detected, repaired (or written off as data loss) and all jobs done.
    # ``detection_pending`` reads the columnar per-node counters, so this
    # per-event-loop check stays O(#dead nodes) at any block count; the
    # scan over every job ever submitted comes last, so it only runs
    # once both cheap conjuncts hold.  All three are pure reads.
    return (
        fixer.idle
        and not cluster.namenode.detection_pending()
        and all(job.is_finished for job in cluster.jobtracker.jobs)
    )


def run_until_quiescent(
    cluster: HadoopCluster, fixer: BlockFixer, timeout: float = 6 * 3600.0
) -> None:
    """Step the simulation until all repairs have completed.

    The BlockFixer re-arms its scan timer forever, so the queue never
    drains; we stop on the repair-completion condition instead.  The
    timeout guards against unrepairable states (it raises, because a
    stuck repair pipeline is not a result).
    """
    deadline = cluster.sim.now + timeout
    while not _quiescent(cluster, fixer):
        if cluster.sim.now > deadline:
            raise QuiesceTimeout(
                f"repairs did not quiesce within {timeout}s; "
                f"fsck={cluster.fsck()}"
            )
        if not cluster.sim.step():
            break


def schedule_run_key(
    scheme: str,
    config: ClusterConfig,
    file_sizes: list[float],
    pattern: tuple[int, ...],
    seed: int,
    event_gap: float,
    warmup: float,
) -> str:
    """Stable identity of one schedule run, for checkpoint file naming.

    The source fingerprint is included: a checkpoint pickled by other
    code is never found, so it is never restored.
    """
    return config_hash(
        {
            "scheme": scheme,
            "config": asdict(config),
            "file_sizes": list(file_sizes),
            "pattern": list(pattern),
            "seed": seed,
            "event_gap": event_gap,
            "warmup": warmup,
            "source": source_fingerprint(),
        }
    )


def run_failure_schedule(
    scheme: str,
    code: ErasureCode,
    config: ClusterConfig,
    file_sizes: list[float],
    pattern: tuple[int, ...],
    seed: int = 0,
    event_gap: float = 900.0,
    warmup: float = 300.0,
    checkpoint: ResultCache | None = None,
    resume: bool = False,
    fault_plan: FaultPlan | None = None,
) -> SchemeRun:
    """Drive a loaded cluster through a sequence of failure events.

    Each event kills ``pattern[i]`` DataNodes, waits for all repairs to
    finish, then idles ``event_gap`` seconds before the next event — the
    separation visible between traffic spikes in Figure 5(a).

    With a ``checkpoint`` store the run pickles itself — cluster, fixer,
    injector and event log — at every epoch boundary (just before each
    kill, when the cluster is quiescent) and keeps the newest
    ``CHECKPOINTS_KEPT``; ``resume=True`` unpickles the newest valid
    snapshot — falling back past corrupted files — and replays only the
    remaining epochs, bit-identically to an uninterrupted run.  A
    ``fault_plan`` (chaos testing) may crash the run or corrupt the
    snapshot right after a checkpoint is written.
    """
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint store")
    if fault_plan is not None and checkpoint is None:
        raise ValueError("a fault plan requires a checkpoint store")
    run_key = found = None
    if checkpoint is not None:
        run_key = schedule_run_key(
            scheme, config, file_sizes, pattern, seed, event_gap, warmup
        )
    if resume:
        found = checkpoint.latest(run_key, max_epoch=len(pattern) - 1)
    if found is not None:
        start_epoch, (cluster, fixer, injector, events) = found
    else:
        start_epoch, events = 0, []
        cluster = build_loaded_cluster(code, config, file_sizes, seed=seed)
        fixer = BlockFixer(cluster)
        injector = make_schedule_injector(cluster, seed)
        fixer.start()
        cluster.run(until=warmup)
    run = SchemeRun(scheme=scheme, cluster=cluster, fixer=fixer, events=events)
    # Failure epochs are sequential simulation phases by definition —
    # each iteration runs the cluster to quiescence, not per-element math.
    for index in range(start_epoch, len(pattern)):
        nodes_to_kill = pattern[index]
        if checkpoint is not None and not (found is not None and index == start_epoch):
            checkpoint.put(
                checkpoint_key(run_key, index), (cluster, fixer, injector, run.events)
            )
            checkpoint.discard(checkpoint_key(run_key, index - CHECKPOINTS_KEPT))
            if fault_plan is not None:
                fault_plan.maybe_corrupt(checkpoint, run_key, index)
                if fault_plan.should_kill(checkpoint, run_key, index):
                    raise InjectedCrash(index)
        record = cluster.metrics.begin_event(
            FailureEventRecord(
                label=f"{nodes_to_kill}", nodes_killed=nodes_to_kill, time=cluster.sim.now
            )
        )
        _, blocks_lost = injector.kill(nodes_to_kill)
        record.blocks_lost = blocks_lost
        record.label = f"{nodes_to_kill}({blocks_lost})"
        run_until_quiescent(cluster, fixer)
        cluster.metrics.end_event()
        run.events.append(record)
        if index + 1 < len(pattern):
            cluster.run(until=cluster.sim.now + event_gap)
    fixer.stop()
    return run
