"""Versioned snapshot codecs for the simulated cluster.

The restore model is **deterministic rebuild + state overlay**: a
checkpoint never pickles live objects with closures (the event queue,
repair tasks, flow callbacks).  Instead the resuming process rebuilds
the cluster from the same ``(code, config, file_sizes, seed)`` — which
reproduces stripes, payloads, and initial placement bit-identically —
and then overlays the mutable state captured here: the simulation clock
and named daemon wakeups, every RNG's bit-generator position, the
BlockIndex placement/liveness columns, the network fabric's interning
tables and counters, the metrics collector, and the daemons' durable
counters.  Because snapshots are only taken at quiescent epoch
boundaries (no repairs in flight, every pending event a named timer),
the overlay is exact and the resumed run replays the remaining epochs
bit-identically.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from ..cluster.mapreduce import MapReduceJob

if TYPE_CHECKING:
    from ..cluster.blockfixer import BlockFixer
    from ..cluster.failures import FailureInjector
    from ..cluster.hdfs import HadoopCluster
    from ..cluster.metrics import MetricsCollector

__all__ = ["SNAPSHOT_SCHEMA", "ClusterSnapshot", "restore_run", "snapshot_run"]

#: Bump whenever any subsystem codec changes what it captures.
SNAPSHOT_SCHEMA = 2  # 2: FlowTable fill_rounds / csr_builds counters


@dataclass
class ClusterSnapshot:
    """Everything a resumed failure-schedule run needs, as plain data."""

    schema: int
    scheme: str
    run_key: str
    #: Index of the *next* failure event to execute on resume.
    epoch: int
    sim: dict[str, Any]
    cluster_rng: dict[str, Any]  # shared by cluster.rng and namenode.rng
    injector: dict[str, Any]
    namenode: dict[str, Any]
    network: dict[str, Any]
    metrics: "MetricsCollector"
    fixer: dict[str, Any]
    slots_free: dict[str, int]
    mapreduce_next_id: int
    data_loss_events: list
    #: Optional extra daemon codecs (scrubber, raidnode, decommission),
    #: keyed by caller-chosen name; each daemon snapshots/restores itself.
    daemons: dict[str, dict[str, Any]]


def snapshot_run(
    scheme: str,
    run_key: str,
    epoch: int,
    cluster: "HadoopCluster",
    fixer: "BlockFixer",
    injector: "FailureInjector",
    daemons: Mapping[str, Any] | None = None,
) -> ClusterSnapshot:
    """Capture a quiescent cluster.

    Ordering matters for the safety checks: the network codec refuses
    while flows are active and the simulation codec refuses while
    anonymous events are live, so a snapshot attempted mid-repair fails
    loudly instead of silently producing an unrestorable file.
    """
    return ClusterSnapshot(
        schema=SNAPSHOT_SCHEMA,
        scheme=scheme,
        run_key=run_key,
        epoch=epoch,
        network=cluster.network.snapshot_state(),
        sim=cluster.sim.snapshot_state(),
        cluster_rng=cluster.rng.bit_generator.state,
        injector=injector.snapshot_state(),
        namenode=cluster.namenode.snapshot_state(),
        # Deep-copied so the live run mutating its collector afterwards
        # cannot reach into an already-taken (in-memory) snapshot.
        metrics=copy.deepcopy(cluster.metrics),
        fixer=fixer.snapshot_state(),
        slots_free=dict(cluster.jobtracker.slots_free),
        mapreduce_next_id=MapReduceJob._next_id,
        data_loss_events=list(cluster.data_loss_events),
        daemons={
            name: daemon.snapshot_state() for name, daemon in (daemons or {}).items()
        },
    )


def restore_run(
    snapshot: ClusterSnapshot,
    cluster: "HadoopCluster",
    fixer: "BlockFixer",
    injector: "FailureInjector",
    daemons: Mapping[str, Any] | None = None,
) -> None:
    """Overlay a snapshot onto a freshly rebuilt cluster.

    ``cluster``/``fixer``/``injector`` must come from the same
    deterministic build recipe the snapshotted run used.  Daemons are
    restored *before* the simulation so their named callbacks are
    registered when the event queue re-binds its wakeups.
    """
    if snapshot.schema != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"snapshot schema {snapshot.schema} != supported {SNAPSHOT_SCHEMA}"
        )
    metrics = copy.deepcopy(snapshot.metrics)
    cluster.metrics = metrics
    cluster.network.metrics = metrics
    cluster.rng.bit_generator.state = snapshot.cluster_rng
    cluster.namenode.restore_state(snapshot.namenode)
    cluster.network.restore_state(snapshot.network)
    cluster.data_loss_events = list(snapshot.data_loss_events)
    cluster.jobtracker.slots_free = dict(snapshot.slots_free)
    # Class-level job-id counter: restored so post-resume jobs carry the
    # same ids/names as in the uninterrupted run (ids feed FairScheduler
    # tie-breaking and job names).
    MapReduceJob._next_id = snapshot.mapreduce_next_id
    injector.restore_state(snapshot.injector)
    fixer.restore_state(snapshot.fixer)
    for name, daemon in (daemons or {}).items():
        daemon.restore_state(snapshot.daemons[name])
    cluster.sim.restore_state(snapshot.sim)
