"""Block integrity: checksums, corruption injection and the scrubber.

Section 3's BlockFixer "periodically checks for lost *or corrupted*
blocks".  Loss is visible to the NameNode (a DataNode stops
heartbeating); corruption is silent — the bytes are still there, just
wrong — and HDFS surfaces it through per-block checksums verified on
read and by a background scrubber.  This module adds that integrity
layer to the simulated cluster:

* :class:`ChecksumRegistry` — CRC32 of every stored block's payload,
  recorded when the stripe is created/encoded (the write path);
* :class:`CorruptionInjector` — flips payload bytes at block
  granularity, modelling bit rot / torn writes;
* :func:`heal_stripe` — heals reported mismatches in place through the
  code's repair machinery, counting the block reads each heal consumed;
* :class:`Scrubber` — the scan-and-heal loop: per-block CRC32
  verification against its registry, then :func:`heal_stripe`.

Detection is by checksum only, as in HDFS: the tests' oracle for a
corrupt position is the injection record, not a second locator.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from ..codes.base import mask_of
from .blocks import BlockId, Stripe

__all__ = [
    "ChecksumRegistry",
    "CorruptionInjector",
    "ScrubReport",
    "Scrubber",
    "heal_stripe",
]


def _crc(payload: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(payload).tobytes())


class ChecksumRegistry:
    """CRC32 per stored block, written once and verified on demand."""

    def __init__(self) -> None:
        self._sums: dict[BlockId, int] = {}

    def __len__(self) -> int:
        return len(self._sums)

    def record_stripe(self, stripe: Stripe) -> int:
        """Checksum every stored position of a payload-carrying stripe."""
        if stripe.payload is None:
            raise ValueError("stripe carries no payload to checksum")
        recorded = 0
        for position in stripe.stored_positions():
            self._sums[stripe.block_id(position)] = _crc(
                stripe.payload[position]
            )
            recorded += 1
        return recorded

    def verify(self, stripe: Stripe, position: int) -> bool:
        """True iff the stored payload still matches its recorded CRC."""
        block = stripe.block_id(position)
        if block not in self._sums:
            raise KeyError(f"no checksum recorded for {block}")
        return self._sums[block] == _crc(stripe.payload[position])

    def scan_stripe(self, stripe: Stripe) -> list[int]:
        """Positions whose payload fails checksum verification."""
        return [
            position
            for position in stripe.stored_positions()
            if stripe.block_id(position) in self._sums
            and not self.verify(stripe, position)
        ]

    def refresh(self, stripe: Stripe, position: int) -> None:
        """Re-record after a legitimate rewrite (e.g. a heal)."""
        self._sums[stripe.block_id(position)] = _crc(stripe.payload[position])


class CorruptionInjector:
    """Deterministic block-granular payload corruption."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self.injected: list[BlockId] = []

    def corrupt_block(self, stripe: Stripe, position: int) -> BlockId:
        """XOR a stored block's payload with non-zero noise."""
        if stripe.payload is None:
            raise ValueError("stripe carries no payload to corrupt")
        block = stripe.block_id(position)  # validates the position
        noise = self.rng.integers(
            1, int(stripe.code.field.order), size=stripe.payload.shape[1]
        ).astype(stripe.code.field.dtype)
        stripe.payload[position] ^= noise
        self.injected.append(block)
        return block


@dataclass
class ScrubReport:
    """Outcome of one scrubber pass."""

    stripes_scanned: int = 0
    corrupt_blocks: list[BlockId] = field(default_factory=list)
    healed_blocks: list[BlockId] = field(default_factory=list)
    unhealable_stripes: list[tuple[str, int]] = field(default_factory=list)
    blocks_read_for_heal: int = 0

    @property
    def clean(self) -> bool:
        return not self.corrupt_blocks


def heal_stripe(
    stripe: Stripe,
    corrupt: list[int],
    report: ScrubReport,
    refresh,
) -> None:
    """Heal already-detected corrupt positions of one stripe in place.

    The heal loop behind :class:`Scrubber`: a corrupted block is healed
    exactly like a lost one (Section 3.1.2) — the light decoder's read
    set when a plan survives, a heavy decode otherwise — so scrub
    accounting follows the same 2x RS-vs-LRC economics as the repair
    benchmarks.
    ``refresh(stripe, position)`` re-records the caller's integrity
    state after each rewrite.
    """
    report.corrupt_blocks.extend(stripe.block_id(p) for p in corrupt)
    healthy = {
        p: stripe.payload[p]
        for p in stripe.stored_positions()
        if p not in corrupt
    }
    # Virtual zero-padding positions are known-zero and free to use.
    # (Loop spans at most k dict entries, not per-element payload data.)
    for p in range(stripe.data_blocks, stripe.code.k):
        healthy[p] = np.zeros(
            stripe.payload.shape[1], dtype=stripe.code.field.dtype
        )
    for position in corrupt:
        # The code's RepairPlanner makes the light-vs-heavy call that
        # drives read accounting; the rebuild is the batched light-first
        # repair of a one-stripe batch, which picks the same plan (both
        # run ``best_repair_plan`` on the same usable set).
        decision = stripe.code.planner.plan_block(position, mask_of(healthy))
        if not decision.feasible:
            report.unhealable_stripes.append((stripe.file_name, stripe.index))
            return
        rebuilt = stripe.code.repair_stripes(position, healthy)[0]
        if decision.light:
            report.blocks_read_for_heal += len(
                stripe.read_set(decision.plan.sources)
            )
        else:
            report.blocks_read_for_heal += len(
                [p for p in healthy if not stripe.is_virtual(p)]
            )
        stripe.payload[position] = rebuilt
        healthy[position] = rebuilt
        refresh(stripe, position)
        report.healed_blocks.append(stripe.block_id(position))


class Scrubber:
    """Scan payload-carrying stripes and heal corrupted blocks in place.

    Detection is per-block CRC32 verification against its own
    :class:`ChecksumRegistry`; healing is :func:`heal_stripe`.
    """

    def __init__(self) -> None:
        self.registry = ChecksumRegistry()

    def record_stripe(self, stripe: Stripe) -> int:
        """Checksum every stored position of a payload-carrying stripe."""
        return self.registry.record_stripe(stripe)

    def scrub_stripe(self, stripe: Stripe, report: ScrubReport) -> None:
        report.stripes_scanned += 1
        corrupt = self.registry.scan_stripe(stripe)
        if corrupt:
            heal_stripe(stripe, corrupt, report, self.registry.refresh)

    def scrub(self, stripes: list[Stripe]) -> ScrubReport:
        report = ScrubReport()
        for stripe in stripes:
            if stripe.payload is not None:
                self.scrub_stripe(stripe, report)
        return report
