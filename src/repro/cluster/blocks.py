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
block *sizes* are simulated, block *math* is real.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from ..codes.base import ErasureCode

__all__ = [
    "BlockId",
    "Stripe",
    "StoredFile",
    "block_kind",
    "encode_stripe_payloads",
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


class Stripe:
    """One erasure-coded stripe: ``n`` positions, some possibly virtual.

    ``data_blocks`` is the number of *real* data blocks; positions in
    ``[data_blocks, k)`` are zero-padding and are neither stored nor read.
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
        self._payload: np.ndarray | None = None
        self._payload_data: np.ndarray | None = None
        if payload_bytes:
            data = np.zeros((code.k, payload_bytes), dtype=code.field.dtype)
            if rng is None:
                # Content identity, not experiment entropy: derive the
                # verification bytes from the block's name so they are
                # stable across processes.  (A default_rng over hash()
                # here was PYTHONHASHSEED-randomized — payloads differed
                # between runs, breaking cross-process checkpoint
                # equivalence.)
                data[:data_blocks] = _content_elements(
                    file_name, index, code.field, (data_blocks, payload_bytes)
                )
            else:
                data[:data_blocks] = code.field.random_elements(
                    rng, (data_blocks, payload_bytes)
                )
            # Encoding is deferred: the storage layer batches whole groups
            # of stripes through the codec engine (one kernel call), and
            # any stray access encodes lazily via the property below.
            self._payload_data = data

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
        """The encoded verification payload, or None when not carried.

        Encodes lazily on first access if the stripe was not already
        batch-encoded via :func:`encode_stripe_payloads`.  The returned
        array is the stripe's single live payload: in-place mutation
        (corruption injection, scrubber heals) is intentional and sticks.
        """
        if self._payload is None and self._payload_data is not None:
            self.attach_payload(self.code.encode_stripes(self._payload_data[None])[0])
        return self._payload

    @property
    def payload_pending(self) -> bool:
        """True while the payload data exists but has not been encoded."""
        return self._payload is None and self._payload_data is not None

    def attach_payload(self, coded: np.ndarray) -> None:
        """Install a (batch-)encoded payload and drop the raw data."""
        coded = np.asarray(coded, dtype=self.code.field.dtype)
        if coded.shape[0] != self.n:
            raise ValueError(
                f"payload must cover all {self.n} positions, got {coded.shape}"
            )
        self._payload = coded
        self._payload_data = None

    def verify_rebuilt(self, position: int, rebuilt: np.ndarray) -> bool:
        return self.payload is None or bool(
            np.array_equal(self.payload[position], rebuilt)
        )


def encode_stripe_payloads(stripes: Iterable[Stripe]) -> int:
    """Batch-encode every pending verification payload.

    Groups the pending stripes by (code, payload width) and runs one
    ``encode_stripes`` kernel per group — this is how loading a cluster
    encodes thousands of stripes without a per-stripe matrix product.
    Returns the number of stripes encoded.
    """
    groups: dict[tuple[int, int], list[Stripe]] = {}
    for stripe in stripes:
        if stripe.payload_pending:
            key = (id(stripe.code), stripe._payload_data.shape[1])
            groups.setdefault(key, []).append(stripe)
    encoded = 0
    for members in groups.values():
        code = members[0].code
        data3d = np.stack([s._payload_data for s in members])
        coded = code.encode_stripes(data3d)
        for index, stripe in enumerate(members):
            stripe.attach_payload(coded[index])
        encoded += len(members)
    return encoded


@dataclass
class StoredFile:
    """A RAIDed file: its stripes plus bookkeeping."""

    name: str
    size_bytes: float
    stripes: list[Stripe] = field(default_factory=list)
    raided: bool = False
