"""Analytics workload: WordCount jobs with degraded reads (Section 5.2.4).

Figure 7 / Table 2 measure how missing blocks slow concurrent MapReduce
jobs: a task whose input block is unavailable must reconstruct it before
processing ("degraded read" — same read path as repair, but the rebuilt
block is never written back).  LRC reconstructions read 5 blocks, RS
reads k, so Xorbas jobs finish closer to the all-blocks-available
baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .blocks import Stripe, StoredFile
from .mapreduce import MapReduceJob, Task

if TYPE_CHECKING:
    from .hdfs import HadoopCluster

__all__ = ["WordCountTask", "make_wordcount_job", "DegradedReadStats"]


class DegradedReadStats:
    """Shared counters for a workload run."""

    def __init__(self) -> None:
        self.degraded_reads = 0
        self.blocks_processed = 0
        self.reconstruction_reads = 0
        self.unreadable_blocks = 0  # stripes beyond the code's tolerance


class WordCountTask(Task):
    """Process one data block; reconstruct it first if unavailable."""

    def __init__(
        self,
        stripe: Stripe,
        position: int,
        preferred_node: str | None,
        stats: DegradedReadStats,
    ):
        super().__init__(preferred_node=preferred_node)
        self.stripe = stripe
        self.position = position
        self.stats = stats

    def execute(self, cluster: "HadoopCluster", node_id: str, finish: Callable[[bool], None]) -> None:
        stripe, position = self.stripe, self.position
        location = cluster.namenode.locate(stripe, position)

        def run_wordcount() -> None:
            self.stats.blocks_processed += 1
            cluster.compute(
                node_id,
                stripe.block_size,
                cluster.config.wordcount_rate,
                lambda: finish(True),
            )

        if location is not None:
            cluster.network.start_transfer(
                src=location,
                dst=node_id,
                nbytes=stripe.block_size,
                on_complete=run_wordcount,
                on_fail=lambda: finish(False),
                disk_read=True,
            )
            return

        # Degraded read: reconstruct in memory, then process (Section 1.1).
        self.stats.degraded_reads += 1
        readable = cluster.namenode.readable_bits(stripe)
        decision = stripe.code.planner.plan_block(
            position, readable | stripe.virtual_bits, readable
        )
        if decision.light:
            sources = list(decision.sources)
            rate = cluster.config.xor_decode_rate
        elif decision.feasible:
            # Efficient degraded-read client: any k readable blocks.
            sources = list(decision.sources)[: stripe.code.k]
            rate = cluster.config.rs_decode_rate
        else:
            # Data genuinely lost: the job skips the split rather than
            # retrying forever (Hadoop would fail the task 4 times and
            # then fail or skip, depending on configuration).
            self.stats.unreadable_blocks += 1
            finish(True)
            return
        self.stats.reconstruction_reads += len(sources)
        read_start = cluster.sim.now

        def after_read() -> None:
            cluster.transfer_cpu_load(read_start, cluster.sim.now)
            nbytes = len(sources) * stripe.block_size
            cluster.compute(node_id, nbytes, rate, run_wordcount)

        cluster.read_blocks(
            node_id, stripe, sources, on_done=after_read, on_fail=lambda: finish(False)
        )


def make_wordcount_job(
    cluster: "HadoopCluster",
    stored: StoredFile,
    stats: DegradedReadStats,
    name: str | None = None,
    on_complete: Callable[[MapReduceJob], None] | None = None,
) -> MapReduceJob:
    """One map task per data block of the file, with locality preferences."""
    tasks: list[Task] = []
    for stripe in stored.stripes:
        for position in range(stripe.data_blocks):
            location = cluster.namenode.locate(stripe, position)
            tasks.append(WordCountTask(stripe, position, location, stats))
    return MapReduceJob(
        name=name or f"wordcount-{stored.name}",
        tasks=tasks,
        on_complete=on_complete,
    )
