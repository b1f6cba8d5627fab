"""Cauchy Reed-Solomon codes and bit-matrix (pure XOR) encoding.

The paper's headline construction gets XOR-only *repair* by choosing
local-parity coefficients c_i = 1.  The classical complement on the
*encoding* side is Cauchy Reed-Solomon (Blömer et al. 1995; the scheme
behind Jerasure and several HDFS-RAID forks): build the parity part of
the generator as a Cauchy matrix — every square submatrix of which is
non-singular, so the code is MDS exactly like the Vandermonde
construction — and then expand each GF(2^m) coefficient into the m x m
binary matrix of its multiplication map.  Encoding becomes a binary
matrix-vector product: nothing but XORs of bit-rows, no log/antilog
tables on the hot path.

Provided here:

* :class:`CauchyRSCode` — a systematic MDS (k, n-k) code with Cauchy
  parity columns, a drop-in alternative to
  :class:`~repro.codes.reed_solomon.ReedSolomonCode`;
* :func:`element_to_bitmatrix` — the GF(2^m) -> GF(2)^{m x m} ring
  homomorphism;
* :func:`build_parity_bitmatrix` — the packed XOR encoder's matrix
  (the naive encoder over it is the oracle
  :func:`repro.spec.xorplane.xor_encode`, verified bit-for-bit against
  the field encoder);
* :func:`xor_count` — the density metric (XORs per parity bit) used to
  compare coefficient choices, which is how Cauchy-matrix literature
  scores constructions.
"""

from __future__ import annotations

import numpy as np

from ..galois import GF, GF256, gf_element_bitmatrix, gf_matrix_to_bitmatrix
from .base import CodeParameters
from .linear import LinearCode

__all__ = [
    "CauchyRSCode",
    "element_to_bitmatrix",
    "build_parity_bitmatrix",
    "xor_count",
]


def _default_points(field: GF, k: int, parity: int) -> tuple[list[int], list[int]]:
    """Disjoint evaluation points: x for parity rows, y for data columns."""
    if k + parity > field.order:
        raise ValueError(
            f"Cauchy construction needs k + parity <= {field.order} "
            f"distinct field elements"
        )
    x_points = list(range(k, k + parity))
    y_points = list(range(k))
    return x_points, y_points


class CauchyRSCode(LinearCode):
    """Systematic MDS code with Cauchy-matrix parity columns.

    Parity i of data d is ``p_i = sum_j d_j / (x_i + y_j)`` with all
    ``x_i``, ``y_j`` distinct field elements (``+`` is XOR).  Every
    square submatrix of a Cauchy matrix is invertible, which gives the
    MDS property by the same argument as the Vandermonde construction.
    """

    def __init__(
        self,
        k: int,
        parity: int,
        field: GF | None = None,
        x_points: list[int] | None = None,
        y_points: list[int] | None = None,
    ):
        if k < 1 or parity < 1:
            raise ValueError("k and parity must be positive")
        field = field if field is not None else GF256
        if x_points is None or y_points is None:
            x_points, y_points = _default_points(field, k, parity)
        if len(x_points) != parity or len(y_points) != k:
            raise ValueError("need parity x-points and k y-points")
        merged = list(x_points) + list(y_points)
        if len(set(merged)) != len(merged):
            raise ValueError("Cauchy points must be pairwise distinct")
        cauchy = np.zeros((parity, k), dtype=field.dtype)
        for i, x in enumerate(x_points):
            for j, y in enumerate(y_points):
                cauchy[i, j] = field.inv(field.add(int(x), int(y)))
        generator = np.concatenate(
            [np.eye(k, dtype=field.dtype), cauchy.T], axis=1
        )
        super().__init__(field, generator, name=f"CauchyRS({k},{parity})")
        self.cauchy = cauchy
        self.x_points = list(x_points)
        self.y_points = list(y_points)

    def minimum_distance(self) -> int:
        """MDS by the Cauchy determinant formula; certified in tests."""
        if self._distance_cache is None:
            self._distance_cache = self.n - self.k + 1
        return self._distance_cache

    def decodable(self, masks) -> np.ndarray:
        """Any k survivors decode an MDS code: a popcount per mask."""
        return self.survivor_bits(masks).sum(axis=1) >= self.k

    def parameters(self) -> CodeParameters:
        return CodeParameters(
            k=self.k,
            n=self.n,
            locality=self.k,
            minimum_distance=self.minimum_distance(),
            name=self.name,
        )


def element_to_bitmatrix(field: GF, element: int) -> np.ndarray:
    """The m x m GF(2) matrix of multiplication by ``element``.

    Column t holds the bit-decomposition of ``element * alpha^t``, so
    for bit-vectors v: ``bits(element * val(v)) = M @ v (mod 2)``.
    This is a ring homomorphism: M(a) + M(b) = M(a XOR b) over GF(2)
    and M(a) @ M(b) = M(a*b), which is what makes the expanded parity
    matrix compute the same codeword as the field arithmetic.

    The construction was born here for Cauchy-RS and now lives in
    :func:`repro.galois.gf_element_bitmatrix`, where the XOR execution
    plane (:mod:`repro.codes.xorplane`) applies it to *every* linear
    code's matrices; this alias keeps the historical Cauchy vocabulary.
    """
    return gf_element_bitmatrix(field, element)


def build_parity_bitmatrix(code: CauchyRSCode) -> np.ndarray:
    """The (parity*m) x (k*m) binary parity matrix of the code."""
    return gf_matrix_to_bitmatrix(code.field, code.cauchy)


def xor_count(bitmatrix: np.ndarray) -> int:
    """XOR operations per encoded word: ones minus output rows.

    Each output bit-row with w selected inputs costs w - 1 XORs (rows
    with no inputs cost nothing); this is the standard density metric
    for comparing Cauchy point choices.
    """
    ones = int(bitmatrix.sum())
    active_rows = int((bitmatrix.sum(axis=1) > 0).sum())
    return ones - active_rows
