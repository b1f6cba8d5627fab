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

Each task plans when it executes, under the stripe's readable pattern
at that moment (the retiring node excluded), so a block whose stripe
lost another block after ``start()`` plans under the current pattern.
The code's ``RepairPlanner`` memoises, so blocks of one shape plan once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

from .blocks import BlockId, Stripe
from .mapreduce import MapReduceJob, Task

if TYPE_CHECKING:
    from .hdfs import HadoopCluster

__all__ = [
    "DecommissionManager",
    "RecreateBlockTask",
    "RecreateDecision",
]


class RecreateDecision(NamedTuple):
    """How one departing block will be rebuilt (or copied) elsewhere.

    ``kind`` is "light" (XOR group decode), "heavy" (full RS decode) or
    "copy" (unrepairable without the retiring node: direct copy off
    it).
    """

    block: BlockId
    kind: str
    sources: tuple[int, ...]


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
    )


class RecreateBlockTask(Task):
    """Rebuild one block somewhere else without reading the retiring node."""

    def __init__(self, manager: "DecommissionManager", stripe: Stripe, position: int):
        super().__init__()
        self.manager = manager
        self.stripe = stripe
        self.position = position

    def _decide(self, cluster: "HadoopCluster") -> RecreateDecision:
        """Plan under the stripe's current readable pattern."""
        readable = cluster.namenode.readable_bits(
            self.stripe, exclude_node=self.manager.node_id
        )
        return _recreate_decision(self.stripe, self.position, readable)

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
        tasks: list[Task] = [
            RecreateBlockTask(self, namenode.stripe_of(block), block.position)
            for block in namenode.blocks_on_node(self.node_id)
        ]
        self.blocks_total = len(tasks)

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
