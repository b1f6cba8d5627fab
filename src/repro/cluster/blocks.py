"""Storage objects: blocks, stripes and files.

Files are divided into stripes of ``k`` data blocks (Section 3); each
stripe is encoded independently.  Incomplete trailing stripes are treated
as zero-padded full stripes "as far as the parity calculation is
concerned" (Section 3.1.1): the virtual zero blocks are never stored and
never read, which is exactly what makes small-file repairs cheap in the
Facebook experiment (Table 3).

Every stripe optionally carries a miniature *real* payload (a few bytes
per block) encoded with the actual code object, so the simulator's
repairs run the true decoders end-to-end and verify the rebuilt bytes —
block *sizes* are simulated, block *math* is real.  A cluster's payloads
are the slots of one :class:`PayloadStore`, which encodes every stripe
created since its last read in one batched ``encode_stripes`` call.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from ..codes.base import ErasureCode

__all__ = [
    "BlockId",
    "PayloadStore",
    "Stripe",
    "StoredFile",
    "block_kind",
]


class BlockId(NamedTuple):
    """Globally unique block identifier: (file, stripe, position).

    A NamedTuple rather than a dataclass: block ids are created by the
    million in metadata scans, and tuple construction/hash/ordering run
    in C while keeping the exact field semantics (lexicographic order
    by file, stripe, then position).
    """

    file_name: str
    stripe_index: int
    position: int  # column index within the stripe's code

    def __str__(self) -> str:
        return f"{self.file_name}/s{self.stripe_index}/b{self.position}"


def block_kind(code: "ErasureCode", position: int) -> str:
    """Classify a stripe position: data, global parity or local parity."""
    if position < code.k:
        return "data"
    groups = getattr(code, "groups", None)
    if groups is None:
        return "parity"
    precode = getattr(code, "precode", None)
    if precode is not None and position < precode.n:
        return "parity"
    if precode is None and position < code.n:
        return "parity"
    return "local_parity"


#: Knuth's multiplicative-hash constant: an odd stride, so the Weyl
#: sequence below is full-period mod 2^32 before the field fold.
_CONTENT_STRIDE = np.uint64(2654435761)


def _content_elements(
    file_name: str, index: int, field_: "object", shape: tuple[int, int]
) -> np.ndarray:
    """Deterministic pseudo-content for verification payloads.

    A crc32-keyed Weyl sequence folded into the field: well-mixed enough
    to exercise the real decoders, derived purely from the block's
    identity so every process regenerates identical bytes.
    """
    salt = zlib.crc32(f"{file_name}:{index}".encode("utf-8"))
    count = int(np.prod(shape))
    values = np.uint64(salt) + np.arange(count, dtype=np.uint64) * _CONTENT_STRIDE
    return (
        (values % np.uint64(field_.order)).astype(field_.dtype).reshape(shape)
    )


class PayloadStore:
    """The verification payloads of one code and width, as one array.

    ``coded`` is ``(capacity, n, width)`` in the code's field dtype; a
    stripe owns one slot of it.  A new slot holds the stripe's data in
    its first ``data_blocks`` rows and zeros elsewhere.  Any read
    (:meth:`array`) first encodes every pending slot,
    ``coded[encoded:used]``, in one ``encode_stripes`` call: loading a
    cluster costs one batched encode however many files it creates, and
    since stripes encode independently, when the encode runs never
    changes the bytes.

    The capacity doubles when full, which reallocates ``coded``: a view
    of it (such as :attr:`Stripe.payload`) is valid only until the next
    stripe is created in the store.  Writes through a live view
    (corruption injection, scrubber heals) are intentional and stick.
    """

    def __init__(self, code: "ErasureCode", width: int):
        self.code = code
        self.width = width
        self.coded = np.zeros((0, code.n, width), dtype=code.field.dtype)
        self.used = 0
        self.encoded = 0

    def add(self) -> int:
        """Claim the next slot (all zeros) and return its index."""
        if self.used == len(self.coded):
            grown = np.zeros(
                (max(1, 2 * self.used), *self.coded.shape[1:]), self.coded.dtype
            )
            grown[: self.used] = self.coded
            self.coded = grown
        self.used += 1
        return self.used - 1

    def array(self) -> np.ndarray:
        """``coded``, with every slot encoded."""
        if self.encoded < self.used:
            pending = self.coded[self.encoded : self.used]
            pending[:] = self.code.encode_stripes(pending[:, : self.code.k])
            self.encoded = self.used
        return self.coded

    def __getstate__(self) -> dict:
        # Spare capacity is zeros: a checkpoint carries the used slots only.
        return {**self.__dict__, "coded": self.coded[: self.used]}


class Stripe:
    """One erasure-coded stripe: ``n`` positions, some possibly virtual.

    ``data_blocks`` is the number of *real* data blocks; positions in
    ``[data_blocks, k)`` are zero-padding and are neither stored nor read.
    The stripe's payload is one slot of ``store``; a stripe given no
    store but ``payload_bytes`` gets a store of its own.
    """

    def __init__(
        self,
        file_name: str,
        index: int,
        code: "ErasureCode",
        data_blocks: int,
        block_size: float,
        payload_bytes: int = 0,
        rng: np.random.Generator | None = None,
        store: PayloadStore | None = None,
    ):
        if not 1 <= data_blocks <= code.k:
            raise ValueError(
                f"stripe must hold 1..{code.k} real data blocks, got {data_blocks}"
            )
        self.file_name = file_name
        self.index = index
        self.code = code
        self.data_blocks = data_blocks
        self.block_size = block_size
        self.parities_stored = False  # False until the RaidNode encodes us
        if store is None and payload_bytes:
            store = PayloadStore(code, payload_bytes)
        self.store = store
        self.slot = -1
        if store is not None:
            if store.code is not code:
                raise ValueError("a payload store holds stripes of one code")
            self.slot = store.add()
            shape = (data_blocks, store.width)
            if rng is None:
                # Content identity, not experiment entropy: derive the
                # verification bytes from the block's name so they are
                # stable across processes.  (A default_rng over hash()
                # here was PYTHONHASHSEED-randomized — payloads differed
                # between runs, breaking cross-process checkpoint
                # equivalence.)
                data = _content_elements(file_name, index, code.field, shape)
            else:
                data = code.field.random_elements(rng, shape)
            store.coded[self.slot, :data_blocks] = data

    # -- structure ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.code.n

    def is_virtual(self, position: int) -> bool:
        """Zero-padding positions: known-zero, never stored or read."""
        return self.data_blocks <= position < self.code.k

    @property
    def virtual_bits(self) -> int:
        """The zero-padding positions ``[data_blocks, k)`` as a pattern
        bitmask: what a decoder may use on top of the readable blocks."""
        return (1 << self.code.k) - (1 << self.data_blocks)

    def stored_positions(self) -> list[int]:
        """Positions that exist on disk: real data, plus parities once the
        stripe has been RAIDed."""
        last = self.n if self.parities_stored else self.code.k
        return [p for p in range(last) if not self.is_virtual(p)]

    def parity_positions(self) -> list[int]:
        return list(range(self.code.k, self.n))

    def block_id(self, position: int) -> BlockId:
        if self.is_virtual(position):
            raise ValueError(f"position {position} is zero padding, never stored")
        return BlockId(self.file_name, self.index, position)

    def read_set(self, plan_sources: tuple[int, ...]) -> list[int]:
        """Physical reads for a repair plan: virtual zeros are free."""
        return [p for p in plan_sources if not self.is_virtual(p)]

    # -- payload verification ------------------------------------------------

    @property
    def payload(self) -> np.ndarray | None:
        """The encoded ``(n, width)`` payload, a view of the store's slot,
        or None when the stripe carries none."""
        if self.store is None:
            return None
        return self.store.array()[self.slot]

    def verify_rebuilt(self, position: int, rebuilt: np.ndarray) -> bool:
        return self.payload is None or bool(
            np.array_equal(self.payload[position], rebuilt)
        )


@dataclass
class StoredFile:
    """A RAIDed file: its stripes plus bookkeeping."""

    name: str
    size_bytes: float
    stripes: list[Stripe] = field(default_factory=list)
    raided: bool = False
