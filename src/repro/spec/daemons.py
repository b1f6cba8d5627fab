"""Scalar specs of the planner-style daemons: the seed implementations
of decommission planning, the FairScheduler pass and the RaidNode scan,
each the oracle its vectorized engine is held element-identical to.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.cluster.blocks import StoredFile, Stripe
from repro.cluster.decommission import RecreateDecision
from repro.cluster.fairscheduler import SchedulerState
from repro.cluster.hdfs import HadoopCluster
from repro.codes.base import mask_of

__all__ = ["plan_pass_seed", "plan_recreates_seed", "scan_candidates_seed"]


def _plan_one(
    cluster: HadoopCluster, stripe: Stripe, position: int, retiring: str
) -> RecreateDecision:
    """The scalar per-block plan: the original RecreateBlockTask logic."""
    available = {
        p: node
        for p, node in cluster.namenode.available_positions(stripe).items()
        if node != retiring
    }
    usable = set(available)
    usable.update(p for p in range(stripe.n) if stripe.is_virtual(p))
    decision = stripe.code.planner.plan_block(
        position, mask_of(usable), readable=mask_of(available)
    )
    if decision.light:
        kind, sources = "light", tuple(decision.sources)
    elif decision.feasible:
        kind, sources = "heavy", tuple(decision.sources)
    else:
        kind, sources = "copy", ()
    return RecreateDecision(
        block=stripe.block_id(position),
        kind=kind,
        sources=sources,
        readable_bits=sum(1 << p for p in available),
    )


def plan_recreates_seed(
    cluster: HadoopCluster, node_id: str
) -> list[RecreateDecision]:
    """The executable spec: plan every resident block one at a time."""
    namenode = cluster.namenode
    return [
        _plan_one(cluster, namenode.stripe_of(block), block.position, node_id)
        for block in namenode.blocks_on_node(node_id)
    ]


def plan_pass_seed(state: SchedulerState) -> np.ndarray:
    """The executable spec: the JobTracker's original greedy loop.

    Mirrors ``min(candidates, key=(running/weight, submit, id))`` per
    free slot, with running/pending advancing as tasks are assigned.
    """
    running = state.running.tolist()
    pending = state.pending.tolist()
    weight = state.weight.tolist()
    submit = state.submit_time.tolist()
    job_id = state.job_id.tolist()
    picks: list[int] = []
    for _ in range(state.total_slots):
        best_key = None
        best_j = -1
        for j in range(len(job_id)):
            if pending[j] <= 0:
                continue
            key = (running[j] / weight[j], submit[j], job_id[j])
            if best_key is None or key < best_key:
                best_key, best_j = key, j
        if best_j < 0:
            break
        picks.append(best_j)
        running[best_j] += 1
        pending[best_j] -= 1
    return np.array(picks, dtype=np.int64)


def scan_candidates_seed(
    files: Mapping[str, StoredFile],
    in_flight: set[str],
    should_raid: Callable[[StoredFile], bool],
) -> list[StoredFile]:
    """The executable spec: the RaidNode's original full-scan filter."""
    return [
        stored
        for name, stored in sorted(files.items())
        if not stored.raided and name not in in_flight and should_raid(stored)
    ]
