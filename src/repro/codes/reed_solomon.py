"""Vandermonde-type Reed-Solomon codes, following the paper's Appendix D.

The (n-k) x n parity-check matrix is ``H[i, j] = alpha^{(i-1)(j-1)}`` for a
primitive element ``alpha`` of GF(2^m).  Any (n-k) x (n-k) submatrix of H
is Vandermonde in distinct field points and therefore non-singular, which
makes the code MDS with minimum distance ``d = n - k + 1``.

Two structural facts from Appendix D matter for the LRC built on top:

* The all-ones vector is the first row of H, so every codeword's symbols
  XOR to zero: ``sum_j g_j = 0``.  This is the *parity alignment* that
  makes the implied local parity S3 = S1 + S2 possible with XOR-only
  coefficients (Theorem 5).
* The systematised generator keeps both properties, because row
  operations do not change the row space.

This mirrors the RS(10,4) ErasureCode of Facebook's HDFS-RAID.
"""

from __future__ import annotations

import numpy as np

from ..galois import GF, GF256, gf_matmul, gf_null_space, gf_vandermonde
from .base import CodeParameters
from .linear import LinearCode, systematize

__all__ = ["ReedSolomonCode", "rs_10_4"]


class ReedSolomonCode(LinearCode):
    """A systematic (k, n-k) Reed-Solomon code over GF(2^m).

    Parameters follow the paper's notation: ``RS(10, 4)`` means k=10 data
    blocks and 4 parity blocks (classical blocklength n=14).
    """

    def __init__(self, k: int, parity: int, field: GF | None = None):
        if k < 1 or parity < 1:
            raise ValueError("k and parity must be positive")
        n = k + parity
        if field is None:
            field = GF256
        if n > field.order - 1:
            raise ValueError(
                f"blocklength {n} exceeds GF(2^{field.m}) limit {field.order - 1}"
            )
        parity_check = self._build_parity_check(field, k, n)
        generator = systematize(field, gf_null_space(field, parity_check))
        super().__init__(field, generator, name=f"RS({k},{parity})")
        self.parity_check = parity_check

    @staticmethod
    def _build_parity_check(field: GF, k: int, n: int) -> np.ndarray:
        """H[i, j] = alpha^{i j} for i in [0, n-k), j in [0, n)."""
        points = [field.exp(j) for j in range(n)]
        return gf_vandermonde(field, n - k, points)

    # -- structural shortcuts (exact for MDS codes, avoids enumeration) ------

    def minimum_distance(self) -> int:
        """MDS distance n - k + 1; certified exhaustively in the tests."""
        if self._distance_cache is None:
            self._distance_cache = self.n - self.k + 1
        return self._distance_cache

    def decodable(self, masks) -> np.ndarray:
        """Any k survivors decode an MDS code: a popcount per mask."""
        return self.survivor_bits(masks).sum(axis=1) >= self.k

    def syndromes(self, coded: np.ndarray) -> np.ndarray:
        """Parity-check syndromes H @ y; all-zero for valid codewords."""
        coded = np.atleast_2d(np.asarray(coded, dtype=self.field.dtype))
        return gf_matmul(self.field, self.parity_check, coded)

    def parameters(self) -> CodeParameters:
        return CodeParameters(
            k=self.k,
            n=self.n,
            locality=self.k,  # Lemma 1: MDS codes have the worst locality
            minimum_distance=self.minimum_distance(),
            name=self.name,
        )


def rs_10_4(field: GF | None = None) -> ReedSolomonCode:
    """The RS(10,4) code deployed in Facebook's production HDFS-RAID."""
    return ReedSolomonCode(10, 4, field=field)
