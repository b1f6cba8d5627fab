"""Abstract interfaces shared by every erasure code in the library.

The vocabulary follows the paper (Section 2): a ``(k, n-k)`` code stripes a
file into ``k`` data blocks and stores ``n`` coded blocks; *locality* ``r``
is the number of other blocks needed to rebuild one lost block; the
*minimum distance* ``d`` is the smallest number of erasures that can make
the file unrecoverable.

Block payloads are numpy ``uint8``/``uint16`` arrays (one row per block).
A *stripe* is the unit of encoding; larger files are split into stripes by
the storage layer (:mod:`repro.cluster`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..galois import GF

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import RepairPlanner

__all__ = [
    "RepairPlan",
    "CodeParameters",
    "ErasureCode",
    "DecodingError",
    "mask_of",
    "positions_of",
    "survival_masks",
]


def mask_of(positions: Iterable[int]) -> int:
    """The pattern bitmask of a collection of stripe positions.

    An erasure pattern (which positions survive, or are missing) travels
    between the metadata plane and the planner as one Python int, bit
    ``p`` set iff position ``p``; this and :func:`positions_of` are the
    only two conversions.
    """
    mask = 0
    for position in positions:
        mask |= 1 << int(position)
    return mask


def positions_of(mask: int) -> tuple[int, ...]:
    """The positions a pattern bitmask denotes, ascending."""
    positions = []
    while mask:
        low = mask & -mask  # the lowest set bit
        positions.append(low.bit_length() - 1)
        mask ^= low
    return tuple(positions)


def survival_masks(n: int, erasures: int) -> list[int]:
    """The survival bitmask of every way to erase ``erasures`` of ``n``
    positions, in :func:`itertools.combinations` order."""
    full = (1 << n) - 1
    return [full ^ mask_of(erased) for erased in combinations(range(n), erasures)]


class DecodingError(Exception):
    """Raised when the surviving blocks cannot reconstruct the request."""


@dataclass(frozen=True)
class RepairPlan:
    """A recipe for rebuilding one lost block.

    Attributes
    ----------
    lost:
        Index of the block being rebuilt.
    sources:
        Indices of the blocks that must be read.
    coefficients:
        Field coefficients applied to the source blocks, aligned with
        ``sources``.  For the paper's Xorbas code these are all 1 (pure
        XOR), which is the point of Section 2.1's ``c_i = 1`` result.
    kind:
        ``"local"`` for light-decoder plans (read ``r`` blocks),
        ``"global"`` for heavy-decoder plans (full linear solve),
        ``"copy"`` for replication.
    """

    lost: int
    sources: tuple[int, ...]
    coefficients: tuple[int, ...]
    kind: str = "local"

    def __post_init__(self) -> None:
        if len(self.sources) != len(self.coefficients):
            raise ValueError("sources and coefficients must align")
        if self.lost in self.sources:
            raise ValueError("a block cannot be a source for its own repair")

    @property
    def num_reads(self) -> int:
        """How many blocks this plan downloads."""
        return len(self.sources)

    def is_xor_only(self) -> bool:
        """True when the plan needs no field multiplications."""
        return all(c == 1 for c in self.coefficients)


@dataclass(frozen=True)
class CodeParameters:
    """Summary parameters of a code, as reported in the paper's Table 1."""

    k: int
    n: int
    locality: int
    minimum_distance: int | None = None
    name: str = ""
    extra: dict = field(default_factory=dict, compare=False)

    @property
    def rate(self) -> float:
        """Code rate R = k/n (equation 4 of the paper)."""
        return self.k / self.n

    @property
    def storage_overhead(self) -> float:
        """Extra storage per byte of data, e.g. 0.4 for RS(10,4)."""
        return (self.n - self.k) / self.k

    def __str__(self) -> str:
        label = self.name or f"({self.k},{self.n - self.k})"
        return (
            f"{label}: k={self.k} n={self.n} r={self.locality} "
            f"d={self.minimum_distance} overhead={self.storage_overhead:.2f}x"
        )


class ErasureCode(ABC):
    """Common behaviour of replication, Reed-Solomon and LRC codes.

    A code *is* its batched stripe API: subclasses define :attr:`k`,
    :attr:`n`, ``encode_stripes`` / ``decode_stripes`` / ``reconstruct``
    / ``repair_stripes`` and the repair-planning primitives.  The
    scalar ``encode`` / ``decode`` / ``repair`` are one-stripe calls into
    that API, defined once here.  The storage simulator talks to codes
    only through this interface, which is how HDFS-Xorbas swaps LRC in
    for RS without touching RaidNode/BlockFixer logic (Section 3.1).
    """

    field: GF
    k: int
    n: int

    # -- batched stripe APIs (the contract) ----------------------------------
    #
    # The cluster layer works in batches of stripes: a node failure takes
    # out one block position in thousands of stripes at once, and loading
    # a cluster encodes every stripe of a file.  ``available`` maps a
    # survivor position to one payload ``(width,)`` or a batch
    # ``(stripes, width)``.

    @abstractmethod
    def encode_stripes(self, data3d: np.ndarray) -> np.ndarray:
        """Encode a ``(stripes, k, width)`` batch into ``(stripes, n, width)``."""

    @abstractmethod
    def decode_stripes(self, available: Mapping[int, np.ndarray]) -> np.ndarray:
        """Recover a batch's data blocks, ``(stripes, k, width)``; raises
        :class:`DecodingError` when the survivors do not determine them."""

    @abstractmethod
    def reconstruct(
        self, lost: Sequence[int], available: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Rebuild ``lost`` blocks for a batch: ``(stripes, len(lost), width)``."""

    @abstractmethod
    def repair_stripes(
        self, lost: int, available: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Repair one block across a batch, ``(stripes, width)``: the light
        decoder first, then the heavy one, as HDFS-Xorbas does (3.1.2)."""

    # -- one-stripe conveniences ---------------------------------------------

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``k`` data blocks ``(k, width)`` into ``(n, width)``."""
        return self.encode_stripes(np.atleast_2d(data)[None])[0]

    def decode(self, available: Mapping[int, np.ndarray]) -> np.ndarray:
        """Recover the ``(k, width)`` data blocks from one stripe's survivors."""
        return self.decode_stripes(available)[0]

    def repair(self, lost: int, available: Mapping[int, np.ndarray]) -> np.ndarray:
        """Rebuild block ``lost`` of one stripe, light decoder first."""
        return self.repair_stripes(lost, available)[0]

    # -- repair -------------------------------------------------------------

    @cached_property
    def planner(self) -> "RepairPlanner":
        """The code's light-vs-heavy repair planner (built lazily, shared)."""
        from .engine import RepairPlanner  # deferred: engine imports base

        return RepairPlanner(self)

    @abstractmethod
    def repair_plans(self, lost: int) -> list[RepairPlan]:
        """All local (light-decoder) plans for rebuilding block ``lost``.

        May be empty (MDS codes have no non-trivial local plans).  Plans
        are ordered by preference.
        """

    @cached_property
    def light_plans(self) -> tuple[tuple[tuple[int, RepairPlan], ...], ...]:
        """Each position's light plans with their source bitmasks.

        ``light_plans[lost]`` pairs every plan of :meth:`repair_plans`
        (same order) with ``mask_of(plan.sources)``: the one precomputed
        form the light-plan rule tests, scalar and batched alike.
        """
        return tuple(
            tuple((mask_of(plan.sources), plan) for plan in self.repair_plans(lost))
            for lost in range(self.n)
        )

    def light_plan(self, lost: int, usable: int) -> RepairPlan | None:
        """The cheapest light plan whose sources all lie in the ``usable``
        bitmask; ties go to the first in :meth:`repair_plans` order."""
        if not 0 <= lost < self.n:
            raise ValueError(f"block index {lost} out of range [0, {self.n})")
        best = None
        for sources, plan in self.light_plans[lost]:
            if not sources & ~usable and (best is None or plan.num_reads < best.num_reads):
                best = plan
        return best

    def best_repair_plan(self, lost: int, available: Iterable[int]) -> RepairPlan | None:
        """The cheapest light plan whose sources are all available."""
        return self.light_plan(lost, mask_of(self._positions(available)))

    # -- introspection -------------------------------------------------------

    def _positions(self, indices: Iterable[int]) -> set[int]:
        """The distinct stripe positions in ``indices``, range-checked.

        The shared guard of ``is_decodable``, ``best_repair_plan`` and the
        locality helpers: a position outside ``[0, n)`` names no block, so
        it raises instead of aliasing a column (``-1``), silently counting
        toward ``k`` or shifting a mask by a negative count.
        """
        positions = {int(i) for i in indices}
        if positions:
            low, high = min(positions), max(positions)
            if low < 0 or high >= self.n:
                bad = low if low < 0 else high
                raise ValueError(f"position {bad} outside [0, {self.n})")
        return positions

    def survivor_bits(self, masks) -> np.ndarray:
        """``(batch, n)`` bools: bit ``p`` of each survival bitmask.

        Masks are an int64 array for stripes of up to 63 blocks and Python
        ints (an object array) beyond, so any width converts.
        """
        dtype = np.int64 if self.n < 64 else object
        masks = np.asarray(masks, dtype=dtype).reshape(-1, 1)
        return (masks >> np.arange(self.n).astype(dtype) & 1).astype(bool)

    @abstractmethod
    def decodable(self, masks) -> np.ndarray:
        """Whether each survival bitmask determines the file, as a bool array.

        The one decodability implementation of each code family; ``masks``
        is a sequence or array of :func:`mask_of` bitmasks.
        """

    def is_decodable(self, indices: Iterable[int]) -> bool:
        """Whether a set of surviving block indices determines the file."""
        return bool(self.decodable([mask_of(self._positions(indices))])[0])

    def heavy_read_count(self, available: Sequence[int]) -> int:
        """Blocks a heavy (full-stripe) decode reads.

        The deployed HDFS-RAID BlockFixer opens streams to *all* surviving
        blocks of the stripe (Section 3.1.2), so the default counts every
        survivor.  Subclasses may override for smarter decoders.
        """
        return len(tuple(available))

    @property
    def storage_overhead(self) -> float:
        return (self.n - self.k) / self.k

    @property
    def rate(self) -> float:
        return self.k / self.n

    @abstractmethod
    def parameters(self) -> CodeParameters:
        """Static summary of the code's (k, n, r, d)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k}, n={self.n})"
