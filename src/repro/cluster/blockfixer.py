"""The BlockFixer daemon and its repair tasks (Section 3.1.2).

Periodically scans for missing blocks and dispatches repair MapReduce
jobs.  Two decoding paths, exactly as in HDFS-Xorbas:

* **Light decoder** — for codes with local repair groups: one map task
  per missing block, opening parallel streams to the (at most r) blocks
  of its repair group and XORing them.
* **Heavy decoder** — when the light decoder is infeasible, or for plain
  Reed-Solomon (HDFS-RS): streams to *all* surviving blocks of the
  stripe are opened and decoding solves the full linear system.  The
  deployed HDFS-RS BlockFixer uses one task per stripe that rebuilds all
  of the stripe's missing blocks from one pass over the survivors.

Light-vs-heavy selection is delegated to the code's
:class:`~repro.codes.engine.RepairPlanner` — the tasks only execute the
decision.  Repairs run on the stripes' miniature real payloads, so every
rebuilt block is verified bit-for-bit against ground truth; a scan pass
precomputes those payload rebuilds for *all* of its stripes in batched
codec-engine calls (grouped by erasure pattern), so a node failure
hitting thousands of stripes costs a handful of cached-matrix batch
products instead of one Gaussian elimination per stripe.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..codes.base import mask_of, positions_of
from .blocks import BlockId, Stripe, encode_stripe_payloads
from .mapreduce import MapReduceJob, Task

if TYPE_CHECKING:
    from .hdfs import HadoopCluster

__all__ = [
    "BlockFixer",
    "LightRepairTask",
    "PayloadRepairBatch",
    "StripeRepairTask",
]


class RepairVerificationError(Exception):
    """A rebuilt block did not match the stripe's ground-truth payload."""


def _payload_map(stripe: Stripe, usable: int):
    if stripe.payload is None:
        return None
    return {p: stripe.payload[p] for p in positions_of(usable)}


class PayloadRepairBatch:
    """Precomputed payload rebuilds for one BlockFixer scan pass.

    At scan time every dirty stripe is registered with its missing and
    usable pattern bitmasks; stripes sharing a pattern are stacked and
    rebuilt through the codec engine in one call (cached reconstruction
    matrix + one batched product, or one batched XOR per light plan).
    Repair tasks then fetch their block's precomputed rebuild at verify
    time — rebuilding through the same batched API, as a batch of one,
    if the erasure pattern *or the survivor bytes themselves* changed
    while the task was in flight (each entry carries a CRC of the
    survivor payloads it was computed from, so an in-place corruption
    between scan and verify cannot be masked by a stale rebuild).
    """

    def __init__(self) -> None:
        self._rebuilt: dict[tuple, tuple[int, np.ndarray]] = {}
        self.groups = 0
        self.stripes = 0

    @staticmethod
    def _key(stripe: Stripe, position: int, usable: int) -> tuple:
        return (stripe.file_name, stripe.index, position, usable)

    @staticmethod
    def _fingerprint(payloads: dict[int, np.ndarray]) -> int:
        """CRC over the survivor bytes, in sorted position order."""
        crc = 0
        for position in sorted(payloads):
            crc = zlib.crc32(
                np.ascontiguousarray(payloads[position]).tobytes(), crc
            )
        return crc

    def schedule(self, entries: list[tuple[Stripe, int, int]]) -> None:
        """Register and batch-rebuild ``(stripe, missing, usable)`` entries."""
        # Stripes whose payload encode was deferred get it here in one
        # batched call, not one lazy scalar encode each below.
        encode_stripe_payloads(stripe for stripe, _, _ in entries)
        groups: dict[tuple, list[Stripe]] = {}
        for stripe, missing, usable in entries:
            if stripe.payload is None:
                continue
            key = (id(stripe.code), missing, usable, stripe.payload.shape[1])
            groups.setdefault(key, []).append(stripe)
        for (_, missing, usable, _), members in groups.items():
            self._rebuild_group(members, missing, usable)

    def _rebuild_group(
        self, members: list[Stripe], missing: int, usable: int
    ) -> None:
        code = members[0].code
        planner = code.planner
        available = {
            p: np.stack([stripe.payload[p] for stripe in members])
            for p in positions_of(usable)
        }
        fingerprints = [
            self._fingerprint({p: plane[s] for p, plane in available.items()})
            for s in range(len(members))
        ]
        heavy: list[int] = []
        for position in positions_of(missing):
            decision = planner.plan_block(position, usable)
            if decision.light:
                rebuilt = code.repair_stripes(position, available)
                self._store(members, fingerprints, position, usable, rebuilt)
            elif decision.feasible:
                heavy.append(position)
            # undecodable positions are left to the task's data-loss path
        if heavy:
            rebuilt = code.reconstruct(heavy, available)
            for j, position in enumerate(heavy):
                self._store(members, fingerprints, position, usable, rebuilt[:, j, :])
        self.groups += 1
        self.stripes += len(members)

    def _store(
        self,
        members: list[Stripe],
        fingerprints: list[int],
        position: int,
        usable: int,
        rebuilt: np.ndarray,
    ) -> None:
        for index, stripe in enumerate(members):
            self._rebuilt[self._key(stripe, position, usable)] = (
                fingerprints[index],
                rebuilt[index],
            )

    def rebuilt_block(
        self,
        stripe: Stripe,
        position: int,
        usable: int,
        payloads: dict[int, np.ndarray],
    ) -> np.ndarray | None:
        """The precomputed rebuild, or None if anything changed.

        ``payloads`` are the survivor bytes as seen at verify time; a
        CRC mismatch against the scan-time bytes invalidates the entry.
        """
        entry = self._rebuilt.get(self._key(stripe, position, usable))
        if entry is None:
            return None
        fingerprint, rebuilt = entry
        if fingerprint != self._fingerprint(payloads):
            return None
        return rebuilt


class LightRepairTask(Task):
    """Repair one missing block, light decoder first (HDFS-Xorbas)."""

    def __init__(
        self,
        fixer: "BlockFixer",
        stripe: Stripe,
        position: int,
        batch: PayloadRepairBatch | None = None,
    ):
        super().__init__()
        self.fixer = fixer
        self.stripe = stripe
        self.position = position
        self.batch = batch
        self._counted = False  # repair-metric accounting: once per block

    def describe(self) -> str:
        return f"repair {self.stripe.block_id(self.position)}"

    def execute(self, cluster: "HadoopCluster", node_id: str, finish: Callable[[bool], None]) -> None:
        stripe, position = self.stripe, self.position
        block = stripe.block_id(position)
        if block not in cluster.namenode.missing_blocks:
            self.fixer.release(block)
            finish(True)
            return
        readable = cluster.namenode.readable_bits(stripe)
        usable = readable | stripe.virtual_bits
        decision = stripe.code.planner.plan_block(position, usable, readable)
        if not decision.feasible:
            self.fixer.record_data_loss(cluster, block)
            finish(True)
            return
        sources = list(decision.sources)
        light = decision.light
        rate = (
            cluster.config.xor_decode_rate
            if light
            else cluster.config.rs_decode_rate
        )
        read_start = cluster.sim.now

        def after_read() -> None:
            cluster.transfer_cpu_load(read_start, cluster.sim.now)
            nbytes = len(sources) * stripe.block_size
            cluster.compute(node_id, nbytes, rate, after_compute)

        def after_compute() -> None:
            self._verify(cluster, usable)
            cluster.write_block(
                executor=node_id,
                stripe=stripe,
                position=position,
                on_done=complete,
                on_fail=lambda: finish(False),
            )

        def complete() -> None:
            cluster.namenode.missing_blocks.discard(block)
            self.fixer.release(block)
            # Exactly-once accounting: a write surviving a failed
            # attempt and the retry's own write both land here, but the
            # block was rebuilt once.
            if not self._counted:
                self._counted = True
                cluster.metrics.record_repair_kind(light)
            finish(True)

        cluster.read_blocks(
            node_id, stripe, sources, on_done=after_read, on_fail=lambda: finish(False)
        )

    def _verify(self, cluster: "HadoopCluster", usable: int) -> None:
        payloads = _payload_map(self.stripe, usable)
        if payloads is None:
            return
        rebuilt = None
        if self.batch is not None:
            rebuilt = self.batch.rebuilt_block(
                self.stripe, self.position, usable, payloads
            )
        if rebuilt is None:  # pattern/bytes changed mid-flight: a batch of one
            rebuilt = self.stripe.code.repair_stripes(self.position, payloads)[0]
        if not self.stripe.verify_rebuilt(self.position, rebuilt):
            raise RepairVerificationError(
                f"rebuilt {self.stripe.block_id(self.position)} does not match"
            )


class StripeRepairTask(Task):
    """Rebuild all missing blocks of a stripe in one pass (HDFS-RS).

    The deployed BlockFixer opens streams to every surviving block "even
    when a single block is corrupt" (Section 3.1.2), which is why RS
    repairs read ~13 blocks for one lost block in Figure 6(a).
    """

    def __init__(
        self,
        fixer: "BlockFixer",
        stripe: Stripe,
        blocks: list[BlockId],
        batch: PayloadRepairBatch | None = None,
    ):
        super().__init__()
        self.fixer = fixer
        self.stripe = stripe
        self.blocks = blocks
        self.batch = batch
        # Positions already counted in the repair metrics.  A task whose
        # batch of writes partially failed is retried while the
        # successful writes of the first attempt may still be landing;
        # each rebuilt block must be counted exactly once across all
        # attempts, not once per completed write.
        self._counted: set[int] = set()

    def describe(self) -> str:
        return f"repair stripe {self.stripe.file_name}/s{self.stripe.index}"

    def execute(self, cluster: "HadoopCluster", node_id: str, finish: Callable[[bool], None]) -> None:
        stripe = self.stripe
        missing = cluster.namenode.missing_positions(stripe)
        if not missing:
            for block in self.blocks:
                self.fixer.release(block)
            finish(True)
            return
        readable = cluster.namenode.readable_bits(stripe)
        usable = readable | stripe.virtual_bits
        decision = stripe.code.planner.plan_stripe(
            mask_of(missing), usable, readable
        )
        if not decision.feasible:
            for position in missing:
                self.fixer.record_data_loss(cluster, stripe.block_id(position))
            for block in self.blocks:
                self.fixer.release(block)
            finish(True)
            return
        sources = list(decision.sources)
        read_start = cluster.sim.now

        def after_read() -> None:
            cluster.transfer_cpu_load(read_start, cluster.sim.now)
            nbytes = len(sources) * stripe.block_size
            cluster.compute(node_id, nbytes, cluster.config.rs_decode_rate, after_compute)

        def after_compute() -> None:
            self._verify(cluster, usable, missing)
            state = {"remaining": len(missing), "failed": False}

            def one_written(position: int) -> None:
                cluster.namenode.missing_blocks.discard(stripe.block_id(position))
                self.fixer.release(stripe.block_id(position))
                if position not in self._counted:
                    self._counted.add(position)
                    cluster.metrics.record_repair_kind(light=False)
                state["remaining"] -= 1
                if state["remaining"] == 0 and not state["failed"]:
                    finish(True)

            def one_failed() -> None:
                if not state["failed"]:
                    state["failed"] = True
                    finish(False)

            for position in missing:
                cluster.write_block(
                    executor=node_id,
                    stripe=stripe,
                    position=position,
                    on_done=lambda p=position: one_written(p),
                    on_fail=one_failed,
                )

        cluster.read_blocks(
            node_id, stripe, sources, on_done=after_read, on_fail=lambda: finish(False)
        )

    def _verify(self, cluster: "HadoopCluster", usable: int, missing: list[int]) -> None:
        payloads = _payload_map(self.stripe, usable)
        if payloads is None:
            return
        stale: list[int] = []
        for position in missing:
            rebuilt = None
            if self.batch is not None:
                rebuilt = self.batch.rebuilt_block(
                    self.stripe, position, usable, payloads
                )
            if rebuilt is None:
                stale.append(position)
            elif not self.stripe.verify_rebuilt(position, rebuilt):
                raise RepairVerificationError(
                    f"rebuilt {self.stripe.block_id(position)} does not match"
                )
        if stale:  # pattern changed mid-flight: one engine call, not per-block
            rebuilt = self.stripe.code.reconstruct(stale, payloads)
            for j, position in enumerate(stale):
                if not self.stripe.verify_rebuilt(position, rebuilt[0, j]):
                    raise RepairVerificationError(
                        f"rebuilt {self.stripe.block_id(position)} does not match"
                    )


class BlockFixer:
    """Periodic missing-block scanner dispatching repair jobs."""

    def __init__(self, cluster: "HadoopCluster", interval: float | None = None):
        self.cluster = cluster
        self.interval = (
            interval if interval is not None else cluster.config.blockfixer_interval
        )
        self.in_repair: set[BlockId] = set()
        self.jobs_dispatched = 0
        self.data_loss_blocks: list[BlockId] = []
        self.payload_batch_groups = 0
        self.payload_batch_stripes = 0
        self._running = False
        # Xorbas path iff the code advertises local repair groups.
        self.light_capable = any(
            cluster.code.repair_plans(i) for i in range(cluster.code.n)
        )

    # -- lifecycle -----------------------------------------------------------

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

    # -- scanning ----------------------------------------------------------------

    def scan(self) -> MapReduceJob | None:
        """One scan pass: build and submit a repair job if needed.

        The repair queue — dirty stripes with their missing and
        decoder-usable pattern bitmasks — is built in one columnar pass over
        the NameNode's BlockIndex, and all payload rebuilds for the pass
        are precomputed in batched codec-engine calls: one
        reconstruction per erasure pattern, not per stripe.
        """
        namenode = self.cluster.namenode
        queue = namenode.repair_queue(self.in_repair)
        if not queue:
            return None
        batch = PayloadRepairBatch()
        entries: list[tuple[Stripe, int, int]] = []
        tasks: list[Task] = []
        for entry in queue:
            stripe = entry.stripe
            entries.append((stripe, entry.missing, entry.usable))
            if self.light_capable:
                for block in entry.blocks:
                    tasks.append(LightRepairTask(self, stripe, block.position, batch))
            else:
                tasks.append(StripeRepairTask(self, stripe, list(entry.blocks), batch))
            self.in_repair.update(entry.blocks)
        batch.schedule(entries)
        self.payload_batch_groups += batch.groups
        self.payload_batch_stripes += batch.stripes
        self.jobs_dispatched += 1
        job = MapReduceJob(
            name=f"blockfixer-{self.jobs_dispatched}",
            tasks=tasks,
            on_complete=self._record_repair_job,
        )
        self.cluster.jobtracker.submit(job)
        return job

    def _record_repair_job(self, job: MapReduceJob) -> None:
        # A bound method, not a closure: finished jobs stay in
        # ``jobtracker.jobs``, and a checkpoint pickles them.
        self.cluster.metrics.record_repair_job(job.submit_time, job.finish_time)

    # -- bookkeeping ----------------------------------------------------------------

    def release(self, block: BlockId) -> None:
        self.in_repair.discard(block)

    def record_data_loss(self, cluster: "HadoopCluster", block: BlockId) -> None:
        """The stripe cannot be decoded: permanent loss (absorbing state)."""
        cluster.namenode.missing_blocks.discard(block)
        cluster.data_loss_events.append(block)
        self.data_loss_blocks.append(block)
        self.release(block)

    @property
    def idle(self) -> bool:
        return not self.in_repair and not self.cluster.namenode.missing_blocks
