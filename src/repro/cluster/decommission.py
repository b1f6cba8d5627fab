"""Node decommissioning as a scheduled repair (Section 1.1, reason two).

Hadoop's decommission feature copies all functional data off a retiring
node — "a process that is complicated and time consuming" that hammers
the node's NIC.  The paper argues fast local repairs let the cluster
instead *recreate* the departing blocks from their repair groups via a
MapReduce job, spreading the read load over the whole cluster and never
touching the retiring node.

``DecommissionManager.decommission`` drives that flow: the node stops
receiving placements immediately, one task per resident block rebuilds
it elsewhere (light decoder first, always excluding the retiring node as
a source), and the node is retired once empty.

Planning is one function of ``(stripe, position, readable bitmask)``:
the bulk planner packs the bitmasks of all the node's blocks in one
columnar pass, a task whose stripe has changed since asks the NameNode
for the current one, and both hand it straight to the ``RepairPlanner``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .blocks import BlockId, Stripe
from .mapreduce import MapReduceJob, Task

if TYPE_CHECKING:
    from .hdfs import HadoopCluster

__all__ = [
    "DecommissionManager",
    "RecreateBlockTask",
    "RecreateDecision",
    "plan_recreates_vectorized",
]


class RecreateDecision(NamedTuple):
    """How one departing block will be rebuilt (or copied) elsewhere.

    ``kind`` is "light" (XOR group decode), "heavy" (full RS decode) or
    "copy" (unrepairable without the retiring node: direct copy off
    it).  ``readable_bits`` is the readable-position bitmask the plan
    was made under, excluding the retiring node — the execute-time
    staleness check replans iff the pattern has since changed.
    """

    block: BlockId
    kind: str
    sources: tuple[int, ...]
    readable_bits: int


def _recreate_decision(
    stripe: Stripe, position: int, readable_bits: int
) -> RecreateDecision:
    """Plan one departing block under ``readable_bits``, the stripe's
    readable pattern with the retiring node already excluded."""
    decision = stripe.code.planner.plan_block(
        position, readable_bits | stripe.virtual_bits, readable_bits
    )
    # Direct BlockId construction: block_id()'s is-virtual guard cannot
    # fire here (virtual positions are never placed, and every caller's
    # position comes from the placement index).
    return RecreateDecision(
        block=BlockId(stripe.file_name, stripe.index, position),
        kind=decision.kind if decision.feasible else "copy",
        sources=decision.sources,
        readable_bits=readable_bits,
    )


def plan_recreates_vectorized(
    cluster: "HadoopCluster", node_id: str
) -> list[RecreateDecision]:
    """The engine: one columnar pass over the retiring node's rows.

    Readable patterns are computed as bitmasks on width-grouped slabs of
    the BlockIndex and handed to the planner as they are, once per
    *distinct* (code, position, pattern) key, not per block — a
    decommissioning node at production scale holds tens of thousands of
    blocks drawn from a handful of patterns.
    """
    index = cluster.namenode.index
    node_idx = index.node_index[node_id]
    rows = index.sort_rows(index.rows_on_node(node_idx))
    decisions: list[RecreateDecision | None] = [None] * rows.size
    if rows.size == 0:
        return []
    sids_all = index.sid[rows]
    widths = index.stripe_n[sids_all]
    stripes = index.stripes
    # Loop-local hoist: blocks sharing (code, padding, position, pattern)
    # share a plan and differ only in their block id.
    memo: dict[tuple, RecreateDecision] = {}
    for n in np.unique(widths):
        group = np.flatnonzero(widths == n)
        grp_sids = sids_all[group]
        rbits = index.readable_bits(grp_sids, int(n), exclude_node=node_idx)
        for i, sid, pos, rb in zip(
            group.tolist(),
            grp_sids.tolist(),
            index.pos[rows[group]].tolist(),
            rbits.tolist(),
        ):
            stripe = stripes[sid]
            key = (id(stripe.code), stripe.data_blocks, pos, rb)
            planned = memo.get(key)
            if planned is None:
                planned = memo[key] = _recreate_decision(stripe, pos, rb)
            decisions[i] = RecreateDecision(
                BlockId(stripe.file_name, stripe.index, pos),
                planned.kind,
                planned.sources,
                rb,
            )
    return decisions  # type: ignore[return-value]


class RecreateBlockTask(Task):
    """Rebuild one block somewhere else without reading the retiring node."""

    def __init__(
        self,
        manager: "DecommissionManager",
        stripe: Stripe,
        position: int,
        planned: RecreateDecision | None = None,
    ):
        super().__init__()
        self.manager = manager
        self.stripe = stripe
        self.position = position
        self.planned = planned

    def describe(self) -> str:
        return f"recreate {self.stripe.block_id(self.position)}"

    def _decide(self, cluster: "HadoopCluster") -> RecreateDecision:
        """The bulk-planned decision if the erasure pattern is unchanged
        since planning time, else a fresh plan under the current one."""
        current = cluster.namenode.readable_bits(
            self.stripe, exclude_node=self.manager.node_id
        )
        planned = self.planned
        if planned is not None and planned.readable_bits == current:
            return planned
        return _recreate_decision(self.stripe, self.position, current)

    def execute(self, cluster: "HadoopCluster", node_id: str, finish: Callable[[bool], None]) -> None:
        stripe, position = self.stripe, self.position
        retiring = self.manager.node_id
        block = stripe.block_id(position)
        if cluster.namenode.block_locations.get(block) != retiring:
            finish(True)  # already moved (or lost and repaired elsewhere)
            return
        decision = self._decide(cluster)
        if decision.kind == "light":
            sources = list(decision.sources)
            rate = cluster.config.xor_decode_rate
        elif decision.kind == "heavy":
            sources = list(decision.sources)
            rate = cluster.config.rs_decode_rate
        else:
            # Cannot rebuild without the retiring node: fall back to a
            # direct copy off it (classic decommission behaviour).
            sources = None
            rate = None

        def relocate() -> None:
            cluster.namenode.remove_block(block)
            cluster.write_block(
                executor=node_id,
                stripe=stripe,
                position=position,
                on_done=lambda: (self.manager.block_moved(), finish(True)),
                on_fail=lambda: finish(False),
            )

        if sources is None:
            cluster.network.start_transfer(
                src=retiring,
                dst=node_id,
                nbytes=stripe.block_size,
                on_complete=relocate,
                on_fail=lambda: finish(False),
                disk_read=True,
            )
            return

        def after_read() -> None:
            nbytes = len(sources) * stripe.block_size
            cluster.compute(node_id, nbytes, rate, relocate)

        cluster.read_blocks(
            node_id, stripe, sources, on_done=after_read, on_fail=lambda: finish(False)
        )


class DecommissionManager:
    """Orchestrates one node's retirement."""

    #: Bulk planner for the retiring node's resident blocks.
    plan_recreates = staticmethod(plan_recreates_vectorized)

    def __init__(self, cluster: "HadoopCluster", node_id: str):
        self.cluster = cluster
        self.node_id = node_id
        self.blocks_total = 0
        self.blocks_relocated = 0
        self.retired = False
        self.job: MapReduceJob | None = None
        self.bytes_read_from_node_before = 0.0

    def start(self, on_complete: Callable[["DecommissionManager"], None] | None = None) -> MapReduceJob:
        """Mark the node decommissioning and submit the recreate job."""
        namenode = self.cluster.namenode
        node = namenode.node(self.node_id)
        if not node.alive:
            raise ValueError(f"cannot decommission dead node {self.node_id}")
        node.decommissioning = True
        self.bytes_read_from_node_before = self.cluster.metrics.disk_read_by_node.get(
            self.node_id, 0.0
        )
        decisions = self.plan_recreates(self.cluster, self.node_id)
        self.blocks_total = len(decisions)
        tasks: list[Task] = []
        for decision in decisions:
            stripe = namenode.stripe_of(decision.block)
            tasks.append(
                RecreateBlockTask(
                    self, stripe, decision.block.position, planned=decision
                )
            )

        def done(job: MapReduceJob) -> None:
            self._retire()
            if on_complete is not None:
                on_complete(self)

        self.job = MapReduceJob(
            name=f"decommission-{self.node_id}", tasks=tasks, on_complete=done
        )
        self.cluster.jobtracker.submit(self.job)
        return self.job

    def block_moved(self) -> None:
        self.blocks_relocated += 1

    # -- checkpoint/restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Durable outcome state as plain data (see repro.recovery).

        Decommission is a one-shot job, not a timer: at a quiescent
        boundary it is either untouched or finished, so only the outcome
        counters survive — never an in-flight recreate job.
        """
        if self.job is not None and not self.job.is_finished:
            raise RuntimeError(
                f"cannot snapshot DecommissionManager({self.node_id}) with "
                "its recreate job in flight; checkpoints are taken at "
                "quiescent boundaries"
            )
        return {
            "node_id": self.node_id,
            "blocks_total": self.blocks_total,
            "blocks_relocated": self.blocks_relocated,
            "retired": self.retired,
            "bytes_read_from_node_before": self.bytes_read_from_node_before,
        }

    def restore_state(self, state: dict) -> None:
        if state["node_id"] != self.node_id:
            raise ValueError(
                f"snapshot is for node {state['node_id']!r}, "
                f"not {self.node_id!r}"
            )
        self.blocks_total = state["blocks_total"]
        self.blocks_relocated = state["blocks_relocated"]
        self.retired = state["retired"]
        self.bytes_read_from_node_before = state["bytes_read_from_node_before"]

    def _retire(self) -> None:
        node = self.cluster.namenode.node(self.node_id)
        if node.block_count == 0:  # O(1) counter, not a block-set scan
            node.alive = False
            self.retired = True

    @property
    def bytes_read_from_retiring_node(self) -> float:
        """Disk reads served by the retiring node during its decommission
        (zero when every block was recreated from its repair group)."""
        current = self.cluster.metrics.disk_read_by_node.get(self.node_id, 0.0)
        return current - self.bytes_read_from_node_before
