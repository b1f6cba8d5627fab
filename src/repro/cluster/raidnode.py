"""The RaidNode daemon: turns plain files into RAIDed (erasure-coded)
files via MapReduce encode jobs (Section 3.1.1).

One encode task per stripe: read the stripe's data blocks, compute the
parity blocks, write them out according to the placement policy, then
mark the stripe RAIDed.  (The production RaidNode also lowers the
replication factor of the data blocks to one; our files are created at
replication one, so that step is a no-op here.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .blocks import Stripe, StoredFile
from .mapreduce import MapReduceJob, Task

if TYPE_CHECKING:
    from .hdfs import HadoopCluster

__all__ = ["RaidNode", "EncodeStripeTask"]


class EncodeStripeTask(Task):
    """Encode one stripe: read k data blocks, write n - k parities."""

    def __init__(self, stripe: Stripe):
        super().__init__()
        self.stripe = stripe

    def execute(self, cluster: "HadoopCluster", node_id: str, finish: Callable[[bool], None]) -> None:
        stripe = self.stripe
        if stripe.parities_stored:
            finish(True)
            return
        data_positions = list(range(stripe.data_blocks))
        read_start = cluster.sim.now

        def after_read() -> None:
            cluster.transfer_cpu_load(read_start, cluster.sim.now)
            nbytes = stripe.data_blocks * stripe.block_size
            cluster.compute(node_id, nbytes, cluster.config.encode_rate, after_compute)

        def after_compute() -> None:
            parities = stripe.parity_positions()
            state = {"remaining": len(parities), "failed": False}

            def one_written() -> None:
                state["remaining"] -= 1
                if state["remaining"] == 0 and not state["failed"]:
                    stripe.parities_stored = True
                    finish(True)

            def one_failed() -> None:
                if not state["failed"]:
                    state["failed"] = True
                    finish(False)

            for position in parities:
                cluster.write_block(
                    executor=node_id,
                    stripe=stripe,
                    position=position,
                    on_done=one_written,
                    on_fail=one_failed,
                )

        cluster.read_blocks(
            node_id,
            stripe,
            data_positions,
            on_done=after_read,
            on_fail=lambda: finish(False),
        )


class RaidNode:
    """Periodic scanner that RAIDs files matching the policy."""

    def __init__(
        self,
        cluster: "HadoopCluster",
        interval: float | None = None,
        should_raid: Callable[[StoredFile], bool] | None = None,
    ):
        self.cluster = cluster
        self.interval = (
            interval if interval is not None else cluster.config.raidnode_interval
        )
        self.should_raid = should_raid or (lambda stored: True)
        self.in_flight: set[str] = set()
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.cluster.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.scan()
        self.cluster.sim.schedule(self.interval, self._tick)

    def scan(self) -> MapReduceJob | None:
        """Find un-RAIDed files and dispatch one encode job for them."""
        candidates = [
            stored
            for name, stored in sorted(self.cluster.files.items())
            if not stored.raided
            and name not in self.in_flight
            and self.should_raid(stored)
        ]
        if not candidates:
            return None
        tasks: list[Task] = []
        for stored in candidates:
            self.in_flight.add(stored.name)
            tasks.extend(
                EncodeStripeTask(stripe)
                for stripe in stored.stripes
                if not stripe.parities_stored
            )

        def done(job: MapReduceJob) -> None:
            for stored in candidates:
                if all(stripe.parities_stored for stripe in stored.stripes):
                    stored.raided = True
                self.in_flight.discard(stored.name)

        job = MapReduceJob(name="raid-encode", tasks=tasks, on_complete=done)
        self.cluster.jobtracker.submit(job)
        return job
