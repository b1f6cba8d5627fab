"""Vectorized scrubber: snapshot comparison instead of per-block CRCs.

The spec scrubber (:class:`~repro.spec.scrubber.Scrubber`) pays one
``zlib.crc32`` + ``tobytes`` round trip per stored block per scan — a
Python-level loop that dominates scan time long before any corruption
is found.  This engine records a contiguous snapshot of each stripe's
stored payload rows at checksum-recording time and detects corruption
with one fancy-index gather and one ``!=``-reduction per stripe.

Equivalence to the spec is exact modulo CRC32 collisions (a corrupted
block whose CRC matches the original's — probability 2^-32 per event
under the injector's random nonzero noise, and impossible to construct
from the simulator's own repair path, which rewrites exact bytes).
Healing is byte-identical: both implementations share
:func:`~repro.cluster.integrity.heal_stripe`.

:class:`CorruptionSchedule` is the pair's difftest schedule — the
randomness of a corruption campaign (which stripe, which position,
which noise seed) frozen as arrays so the spec and engine scan the
*same* corrupted bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.difftest import ArraySchedule, require_within

from .blocks import Stripe
from .integrity import CorruptionInjector, ScrubReport, heal_stripe

__all__ = ["CorruptionSchedule", "ScrubEngine"]


@dataclass(frozen=True)
class CorruptionSchedule(ArraySchedule):
    """A corruption campaign as arrays: one row per corrupted block."""

    stripe_idx: np.ndarray  # int64: index into the scanned stripe list
    position: np.ndarray  # int64: position within the stripe
    seed: int  # injector seed: the noise bytes are part of the schedule

    @classmethod
    def draw(
        cls,
        rng: np.random.Generator,
        num_stripes: int,
        events: int,
        max_position: int,
        seed: int = 0,
    ) -> "CorruptionSchedule":
        return cls(
            stripe_idx=rng.integers(0, num_stripes, size=events, dtype=np.int64),
            position=rng.integers(0, max_position, size=events, dtype=np.int64),
            seed=seed,
        )

    def check(self, stripes: Sequence[Stripe]) -> None:
        if self.stripe_idx.shape != self.position.shape:
            raise ValueError("stripe_idx and position must align")
        require_within(self.stripe_idx, len(stripes), "stripe indices")
        for i, p in zip(self.stripe_idx.tolist(), self.position.tolist()):
            if not 0 <= p < stripes[i].n:
                raise ValueError(f"position {p} outside stripe {i}")

    def apply(self, stripes: Sequence[Stripe]) -> CorruptionInjector:
        """Corrupt the scheduled blocks in place (replayable: the
        injector's noise stream is seeded from the schedule)."""
        self.check(stripes)
        injector = CorruptionInjector(seed=self.seed)
        for i, p in zip(self.stripe_idx.tolist(), self.position.tolist()):
            injector.corrupt_block(stripes[i], int(p))
        return injector


class _Slab:
    """A growing (rows, width) array holding many stripes' snapshots.

    Keeping every snapshot row of a given (width, dtype) contiguous is
    what makes the batched scan cheap: stripes recorded in order (the
    daemon's case) read their pristine rows back as one zero-copy
    slice, and even out-of-order membership is a single gather from
    contiguous memory instead of a concatenate over thousands of
    scattered small arrays.
    """

    __slots__ = ("data", "used")

    def __init__(self, width: int, dtype: np.dtype):
        self.data = np.empty((256, width), dtype=dtype)
        self.used = 0

    def alloc(self, rows: int) -> int:
        if self.used + rows > len(self.data):
            capacity = max(2 * len(self.data), self.used + rows)
            grown = np.empty((capacity, self.data.shape[1]), self.data.dtype)
            grown[: self.used] = self.data[: self.used]
            self.data = grown
        start = self.used
        self.used += rows
        return start


@dataclass
class _StripeSnapshot:
    positions: np.ndarray  # stored positions covered by the snapshot
    covers_all: bool  # snapshot rows == payload rows (no gather needed)
    slab: _Slab
    start: int  # first slab row of this stripe's snapshot

    @property
    def rows(self) -> int:
        return int(self.positions.size)

    @property
    def payload(self) -> np.ndarray:
        """The pristine rows (a view into the slab)."""
        return self.slab.data[self.start : self.start + self.rows]


class ScrubEngine:
    """Snapshot-based scan-and-heal over payload-carrying stripes.

    Mirrors the :class:`~repro.spec.scrubber.Scrubber` API
    (``record_stripe`` / ``scrub``) and produces identical
    :class:`~repro.cluster.integrity.ScrubReport` objects on the same
    corruption state.
    """

    def __init__(self) -> None:
        self._snapshots: dict[tuple[str, int], _StripeSnapshot] = {}
        self._slabs: dict[tuple[int, str], _Slab] = {}

    def __len__(self) -> int:
        return len(self._snapshots)

    def record_stripe(self, stripe: Stripe) -> int:
        """Snapshot every stored position of a payload-carrying stripe."""
        if stripe.payload is None:
            raise ValueError("stripe carries no payload to snapshot")
        positions = np.asarray(stripe.stored_positions(), dtype=np.int64)
        key = (stripe.file_name, stripe.index)
        width = stripe.payload.shape[1]
        slab_key = (width, stripe.payload.dtype.str)
        slab = self._slabs.get(slab_key)
        if slab is None:
            slab = self._slabs[slab_key] = _Slab(width, stripe.payload.dtype)
        existing = self._snapshots.get(key)
        if (
            existing is not None
            and existing.slab is slab
            and existing.rows == positions.size
        ):
            start = existing.start  # re-record in place
        else:
            start = slab.alloc(int(positions.size))
        slab.data[start : start + positions.size] = stripe.payload[positions]
        self._snapshots[key] = _StripeSnapshot(
            positions=positions,
            covers_all=positions.size == stripe.payload.shape[0],
            slab=slab,
            start=start,
        )
        return int(positions.size)

    def _refresh(self, stripe: Stripe, position: int) -> None:
        snap = self._snapshots[(stripe.file_name, stripe.index)]
        idx = np.flatnonzero(snap.positions == position)
        if idx.size:
            snap.slab.data[snap.start + int(idx[0])] = stripe.payload[position]

    def scan_stripe(self, stripe: Stripe) -> list[int]:
        """Positions whose payload differs from the recorded snapshot."""
        snap = self._snapshots.get((stripe.file_name, stripe.index))
        if snap is None or snap.positions.size == 0:
            return []
        changed = np.any(stripe.payload[snap.positions] != snap.payload, axis=1)
        return [int(p) for p in snap.positions[changed]]

    def scan_many(self, stripes: Sequence[Stripe]) -> list[list[int]]:
        """Corrupt positions per stripe, one numpy pass per shape group.

        Snapshots that cover every payload row (the steady state: all
        positions stored) stack directly — no per-stripe gather — into
        one ``(stripes, rows, width)`` block per distinct shape, and a
        single ``!=``-reduction finds the corrupt rows of the whole
        group.  Partial snapshots fall back to the per-stripe scan.
        """
        corrupt: list[list[int]] = [[] for _ in stripes]
        snaps: list[_StripeSnapshot | None] = []
        groups: dict[
            tuple[_Slab, int], tuple[list[int], list[int]]
        ] = {}
        lookup = self._snapshots.get
        for i, stripe in enumerate(stripes):
            snap = lookup((stripe.file_name, stripe.index))
            snaps.append(snap)
            if snap is None or snap.positions.size == 0:
                continue
            if snap.covers_all:
                members, starts = groups.setdefault(
                    (snap.slab, snap.rows), ([], [])
                )
                members.append(i)
                starts.append(snap.start)
            else:
                corrupt[i] = self.scan_stripe(stripe)
        for (slab, rows), (members, starts) in groups.items():
            m = len(members)
            width = slab.data.shape[1]
            # concatenate + reshape, not np.stack: stack builds one
            # Python-level view per member array, which at tens of
            # thousands of stripes costs more than the copy itself.
            current = np.concatenate(
                [stripes[i].payload for i in members], axis=0
            ).reshape(m, rows, width)
            start_arr = np.asarray(starts, dtype=np.int64)
            expected = start_arr[0] + rows * np.arange(m, dtype=np.int64)
            if np.array_equal(start_arr, expected):
                # Recorded in scan order (the daemon's steady state):
                # the pristine block is one zero-copy slab slice.
                base = int(start_arr[0])
                pristine = slab.data[base : base + m * rows].reshape(
                    m, rows, width
                )
            else:
                gather = (
                    start_arr[:, None] + np.arange(rows, dtype=np.int64)
                ).ravel()
                pristine = slab.data[gather].reshape(m, rows, width)
            # One memcmp per row via a void view (payloads are unsigned
            # field words, so byte equality is element equality).
            cell = np.dtype((np.void, width * slab.data.dtype.itemsize))
            changed = current.view(cell)[..., 0] != pristine.view(cell)[..., 0]
            for j in np.flatnonzero(changed.any(axis=1)).tolist():
                i = members[j]
                corrupt[i] = snaps[i].positions[changed[j]].tolist()
        return corrupt

    def scrub(self, stripes: list[Stripe]) -> ScrubReport:
        """Batched scan, then the shared heal loop on the corrupt few.

        Scanning every stripe before healing any is equivalent to the
        spec's scan-heal interleaving because a heal only rewrites the
        healed stripe's own payload and snapshot (assumes the input
        lists each stripe once, as the daemon's scan does).
        """
        report = ScrubReport()
        scannable = [s for s in stripes if s.payload is not None]
        report.stripes_scanned = len(scannable)
        for stripe, found in zip(scannable, self.scan_many(scannable)):
            if found:
                heal_stripe(stripe, found, report, self._refresh)
        return report
