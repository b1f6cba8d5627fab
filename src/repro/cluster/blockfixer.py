"""The BlockFixer daemon and its repair tasks (Section 3.1.2).

Periodically scans for missing blocks and dispatches repair MapReduce
jobs for the ones not already under repair (the NameNode's queue claims
them; the tasks release them).  A task carries its stripe and the
positions it claimed, as one bitmask, and repairs exactly those of them
that are still missing: a block lost after the scan is another task's
claim.  Two decoding paths, exactly as in HDFS-Xorbas:

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
decision.  Both task kinds run one body (plan, read, compute, verify,
write each position, resolve, count each position once); a kind only
says how it plans its positions (``plan_block`` or ``plan_stripe``) and
how it rebuilds a block whose precomputed rebuild went stale
(``repair_stripes`` or ``reconstruct``).  Repairs run on the
stripes' miniature real payloads, so every
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
from .blocks import Stripe, encode_stripe_payloads
from .mapreduce import MapReduceJob, Task

if TYPE_CHECKING:
    from ..codes.engine import RepairDecision
    from .hdfs import HadoopCluster

__all__ = [
    "BlockFixer",
    "LightRepairTask",
    "PayloadRepairBatch",
    "StripeRepairTask",
]


class RepairVerificationError(Exception):
    """A rebuilt block did not match the stripe's ground-truth payload."""


class PayloadRepairBatch:
    """Precomputed payload rebuilds for one BlockFixer scan pass.

    At scan time every dirty stripe is registered with its missing and
    usable pattern bitmasks; stripes sharing a pattern are stacked once
    and rebuilt through the codec engine, which reads each survivor as a
    column view of that stack (one cached reconstruction matrix and one
    batched product, or one batched XOR per light plan).
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
        payloads = np.stack([stripe.payload for stripe in members])  # (S, n, w)
        available = {p: payloads[:, p] for p in positions_of(usable)}
        fingerprints = [
            self._fingerprint({p: slab[s] for p, slab in available.items()})
            for s in range(len(members))
        ]
        rebuilt: dict[int, np.ndarray] = {}
        heavy: list[int] = []
        for position in positions_of(missing):
            decision = code.planner.plan_block(position, usable)
            if decision.light:
                rebuilt[position] = code.repair_stripes(position, available)
            elif decision.feasible:
                heavy.append(position)
            # undecodable positions are left to the task's data-loss path
        if heavy:
            blocks = code.reconstruct(heavy, available).transpose(1, 0, 2)
            rebuilt.update(zip(heavy, blocks))
        for position, blocks in rebuilt.items():
            for stripe, fingerprint, block in zip(members, fingerprints, blocks):
                key = self._key(stripe, position, usable)
                self._rebuilt[key] = (fingerprint, block)
        self.groups += 1
        self.stripes += len(members)

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


class _RepairTask(Task):
    """The one repair body both decoders share.

    ``execute`` takes the claimed positions that are still missing,
    plans them under the stripe's current pattern, reads the decision's
    sources, charges the decode, verifies every rebuilt byte, writes
    each repaired position and resolves it.  A subclass supplies how it
    plans the positions and how it rebuilds blocks whose precomputed
    rebuild went stale.
    """

    def __init__(
        self,
        fixer: "BlockFixer",
        stripe: Stripe,
        claimed: int,
        batch: PayloadRepairBatch | None = None,
    ):
        super().__init__()
        self.fixer = fixer
        self.stripe = stripe
        self.claimed = claimed  # position bitmask: the claims this task releases
        self.batch = batch
        # Positions already counted in the repair metrics.  A task whose
        # writes partly failed is retried while the first attempt's
        # successful writes may still be landing; each rebuilt block
        # counts once across all attempts, not once per completed write.
        self._counted: set[int] = set()

    def _plan(self, positions: list[int], usable: int, readable: int) -> RepairDecision:
        raise NotImplementedError

    def _rebuild(self, positions: list[int], payloads: dict) -> np.ndarray:
        """``(len(positions), width)`` rebuilt from the current survivors."""
        raise NotImplementedError

    def _release(self, cluster: "HadoopCluster") -> None:
        for position in positions_of(self.claimed):
            cluster.namenode.release(self.stripe, position)

    def execute(self, cluster: "HadoopCluster", node_id: str, finish: Callable[[bool], None]) -> None:
        stripe = self.stripe
        namenode = cluster.namenode
        positions = [
            p for p in positions_of(self.claimed) if namenode.is_missing(stripe, p)
        ]
        if not positions:
            self._release(cluster)
            finish(True)
            return
        readable = namenode.readable_bits(stripe)
        usable = readable | stripe.virtual_bits
        decision = self._plan(positions, usable, readable)
        if not decision.feasible:
            for position in positions:
                self.fixer.record_data_loss(cluster, stripe, position)
            self._release(cluster)
            finish(True)
            return
        sources = list(decision.sources)
        light = decision.light
        config = cluster.config
        rate = config.xor_decode_rate if light else config.rs_decode_rate
        read_start = cluster.sim.now

        def after_read() -> None:
            cluster.transfer_cpu_load(read_start, cluster.sim.now)
            nbytes = len(sources) * stripe.block_size
            cluster.compute(node_id, nbytes, rate, after_compute)

        def after_compute() -> None:
            self._verify(usable, positions)
            state = {"remaining": len(positions), "failed": False}

            def one_written(position: int) -> None:
                namenode.resolve(stripe, position)
                if position not in self._counted:
                    self._counted.add(position)
                    cluster.metrics.record_repair_kind(light)
                state["remaining"] -= 1
                if state["remaining"] == 0 and not state["failed"]:
                    finish(True)

            def one_failed() -> None:
                if not state["failed"]:
                    state["failed"] = True
                    finish(False)

            for position in positions:
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

    def _verify(self, usable: int, positions: list[int]) -> None:
        if self.stripe.payload is None:
            return
        payloads = {p: self.stripe.payload[p] for p in positions_of(usable)}
        checked: list[tuple[int, np.ndarray]] = []
        stale: list[int] = []
        for position in positions:
            rebuilt = None
            if self.batch is not None:
                rebuilt = self.batch.rebuilt_block(
                    self.stripe, position, usable, payloads
                )
            if rebuilt is None:
                stale.append(position)
            else:
                checked.append((position, rebuilt))
        if stale:  # pattern or bytes changed mid-flight: one engine call
            checked.extend(zip(stale, self._rebuild(stale, payloads)))
        for position, rebuilt in checked:
            if not self.stripe.verify_rebuilt(position, rebuilt):
                raise RepairVerificationError(
                    f"rebuilt {self.stripe.block_id(position)} does not match"
                )


class LightRepairTask(_RepairTask):
    """Repair one missing block, light decoder first (HDFS-Xorbas)."""

    def _plan(self, positions: list[int], usable: int, readable: int) -> RepairDecision:
        return self.stripe.code.planner.plan_block(positions[0], usable, readable)

    def _rebuild(self, positions: list[int], payloads: dict) -> np.ndarray:
        # One stripe, one position: the batch's single row is the block.
        return self.stripe.code.repair_stripes(positions[0], payloads)


class StripeRepairTask(_RepairTask):
    """Rebuild all missing blocks of a stripe in one pass (HDFS-RS).

    The deployed BlockFixer opens streams to every surviving block "even
    when a single block is corrupt" (Section 3.1.2), which is why RS
    repairs read ~13 blocks for one lost block in Figure 6(a).
    """

    def _plan(self, positions: list[int], usable: int, readable: int) -> RepairDecision:
        planner = self.stripe.code.planner
        return planner.plan_stripe(mask_of(positions), usable, readable)

    def _rebuild(self, positions: list[int], payloads: dict) -> np.ndarray:
        return self.stripe.code.reconstruct(positions, payloads)[0]


class BlockFixer:
    """Periodic missing-block scanner dispatching repair jobs."""

    def __init__(self, cluster: "HadoopCluster", interval: float | None = None):
        self.cluster = cluster
        self.interval = (
            interval if interval is not None else cluster.config.blockfixer_interval
        )
        self.jobs_dispatched = 0
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
        decoder-usable pattern bitmasks — is claimed in one columnar pass
        over the NameNode's BlockIndex, and all payload rebuilds for the pass
        are precomputed in batched codec-engine calls: one
        reconstruction per erasure pattern, not per stripe.
        """
        queue = self.cluster.namenode.repair_queue()
        if not queue:
            return None
        batch = PayloadRepairBatch()
        entries: list[tuple[Stripe, int, int]] = []
        tasks: list[Task] = []
        for entry in queue:
            stripe = entry.stripe
            entries.append((stripe, entry.missing, entry.usable))
            if self.light_capable:
                for position in positions_of(entry.claimed):
                    tasks.append(LightRepairTask(self, stripe, 1 << position, batch))
            else:
                tasks.append(StripeRepairTask(self, stripe, entry.claimed, batch))
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

    def record_data_loss(
        self, cluster: "HadoopCluster", stripe: Stripe, position: int
    ) -> None:
        """The stripe cannot be decoded: permanent loss (absorbing state)."""
        cluster.namenode.resolve(stripe, position)
        cluster.data_loss_events.append(stripe.block_id(position))

    @property
    def idle(self) -> bool:
        namenode = self.cluster.namenode
        return not namenode.in_repair_count and not namenode.missing_count
