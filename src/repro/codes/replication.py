"""n-way replication expressed as a (trivial) erasure code.

Replication is the baseline the paper's Table 1 compares against: storage
overhead (n-1)x, repair traffic 1x (copy one replica), distance n (all
replicas must die to lose data), locality 1.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..galois import GF, GF256, gf_slabs
from .base import CodeParameters, DecodingError, ErasureCode, RepairPlan

__all__ = ["ReplicationCode", "three_replication"]


class ReplicationCode(ErasureCode):
    """k=1 code storing ``replicas`` identical copies of each block."""

    def __init__(self, replicas: int = 3, field: GF | None = None):
        if replicas < 1:
            raise ValueError("need at least one replica")
        self.field = field if field is not None else GF256
        self.k = 1
        self.n = replicas
        self.name = f"{replicas}-replication"

    # -- batched stripe APIs (copies, no field arithmetic needed) -----------

    def encode_stripes(self, data3d: np.ndarray) -> np.ndarray:
        data3d = np.asarray(data3d, dtype=self.field.dtype)
        if data3d.ndim != 3 or data3d.shape[1] != 1:
            raise ValueError(
                f"expected a (stripes, 1, width) batch, got {data3d.shape}"
            )
        return np.repeat(data3d, self.n, axis=1)

    def reconstruct(self, lost, available: Mapping[int, np.ndarray]) -> np.ndarray:
        if not available:
            raise DecodingError("no replicas available")
        (slab,), _, _ = gf_slabs(self.field, [available[min(available)]])
        return np.repeat(slab[:, None, :], len(tuple(lost)), axis=1)

    def decode_stripes(self, available: Mapping[int, np.ndarray]) -> np.ndarray:
        return self.reconstruct((0,), available)

    def repair_stripes(self, lost: int, available: Mapping[int, np.ndarray]) -> np.ndarray:
        return self.reconstruct((lost,), available)[:, 0, :]

    def repair_plans(self, lost: int) -> list[RepairPlan]:
        if not 0 <= lost < self.n:
            raise ValueError(f"replica index {lost} out of range")
        return [
            RepairPlan(lost=lost, sources=(src,), coefficients=(1,), kind="copy")
            for src in range(self.n)
            if src != lost
        ]

    def heavy_read_count(self, available) -> int:
        return 1  # copying any single surviving replica suffices

    def decodable(self, masks) -> np.ndarray:
        """Any surviving replica recovers the block."""
        return self.survivor_bits(masks).any(axis=1)

    def minimum_distance(self) -> int:
        return self.n

    def parameters(self) -> CodeParameters:
        return CodeParameters(
            k=1,
            n=self.n,
            locality=1,
            minimum_distance=self.n,
            name=self.name,
        )


def three_replication() -> ReplicationCode:
    """Hadoop's default triple replication (200% storage overhead)."""
    return ReplicationCode(3)
