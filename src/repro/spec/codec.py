"""The seed scalar codec: the batched ``CodecEngine``'s oracle.

:func:`seed_encode` and :func:`seed_decode` are the pre-engine
per-stripe codec of a :class:`~repro.codes.linear.LinearCode` — one
``gf_matmul`` per stripe, greedy rank-per-candidate survivor selection
and a fresh inversion per decode.  :class:`GatherCodecEngine` pins the GF
gather kernels the compiled XOR plane must match byte for byte, and
:class:`PolynomialRSCode` is an independent Reed-Solomon codec
(polynomial evaluation / Lagrange interpolation) that the Vandermonde
matrix codec is cross-checked against.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.codes.base import CodeParameters, DecodingError, RepairPlan
from repro.codes.engine import CodecEngine
from repro.galois import GF, GF256, gf_inv, gf_matmul, gf_rank

__all__ = [
    "GatherCodecEngine",
    "PolynomialRSCode",
    "seed_columns",
    "seed_decode",
    "seed_encode",
]


def seed_encode(code, data: np.ndarray) -> np.ndarray:
    """Encode data blocks: coded[j] = sum_i G[i, j] * data[i]."""
    data = np.atleast_2d(np.asarray(data, dtype=code.field.dtype))
    if data.shape[0] != code.k:
        raise ValueError(f"expected {code.k} data blocks, got {data.shape[0]}")
    return gf_matmul(code.field, code.generator.T, data)


def seed_columns(code, indices) -> list[int]:
    """The seed greedy survivor selection: accept, in order, each column
    that raises the rank (one full rank per candidate), up to rank k."""
    chosen, rank = [], 0
    for idx in indices:
        candidate = chosen + [idx]
        new_rank = gf_rank(code.field, code.generator[:, candidate])
        if new_rank > rank:
            chosen, rank = candidate, new_rank
            if rank == code.k:
                break
    return chosen


def seed_decode(code, available: Mapping[int, np.ndarray]) -> np.ndarray:
    """The seed scalar decoder: greedy rank-recomputing survivor
    selection, submatrix inversion, one matrix product."""
    indices = sorted(available)
    if len(indices) < code.k:
        raise DecodingError("not enough blocks")
    chosen = seed_columns(code, indices)
    if len(chosen) != code.k:
        raise DecodingError("available blocks do not span the data space")
    submatrix = code.generator[:, chosen]
    stacked = np.stack(
        [np.asarray(available[i], dtype=code.field.dtype) for i in chosen]
    )
    return gf_matmul(code.field, gf_inv(code.field, submatrix.T), stacked)


class GatherCodecEngine(CodecEngine):
    """A ``CodecEngine`` that never dispatches to the compiled XOR plane:
    the GF gather kernels the plane must match byte for byte."""

    def _schedule(self, key, build_matrix, symbols):
        return None


def _from_roots(field: GF, roots) -> np.ndarray:
    """Coefficients (low degree first) of the monic ``prod (x - root)``."""
    coeffs = np.ones(1, dtype=field.dtype)
    for root in roots:
        shifted = np.zeros(len(coeffs) + 1, dtype=field.dtype)
        shifted[1:] = coeffs  # x * p
        shifted[:-1] ^= field.scale(root, coeffs)  # - root * p == + root * p
        coeffs = shifted
    return coeffs


def _evaluate(field: GF, coeffs: np.ndarray, x):
    """Horner's rule: the polynomial ``coeffs`` at one point or an array."""
    x = np.asarray(x, dtype=field.dtype)
    result = np.zeros(x.shape, dtype=field.dtype)
    for coeff in coeffs[::-1]:
        result = field.mul(result, x) ^ field.dtype.type(coeff)
    return result


def _lagrange_interpolate(field: GF, points, values) -> np.ndarray:
    """Coefficients of the unique polynomial of degree < len(points)
    through the samples: the heavy decoder of the polynomial RS view.
    Points must be distinct; a repeated point raises ValueError."""
    if len(points) != len(values):
        raise ValueError("points and values must have equal length")
    if len(set(int(p) for p in points)) != len(points):
        raise ValueError("interpolation points must be distinct")
    result = np.zeros(len(points), dtype=field.dtype)
    for i, (xi, yi) in enumerate(zip(points, values)):
        if int(yi) == 0:
            continue
        # L_i = prod_{j != i} (x - x_j) / (x_i - x_j); the denominator is
        # the numerator evaluated at x_i.
        basis = _from_roots(field, [p for j, p in enumerate(points) if j != i])
        denom = _evaluate(field, basis, xi)
        result ^= field.scale(field.mul(int(yi), field.inv(denom)), basis)
    return result


class PolynomialRSCode:
    """Systematic evaluation-style Reed-Solomon code over GF(2^m).

    Block j is the evaluation of the (payload-wise) message polynomial at
    the field point ``alpha^j``; the systematic variant interpolates the
    message polynomial *through the data blocks*, so the first k coded
    blocks are the data verbatim.  Semantically equivalent to
    :class:`~repro.codes.reed_solomon.ReedSolomonCode` (same k, n, MDS
    distance); the codeword symbols differ because the encodings use
    different generator bases, which is exactly what makes it useful as a
    cross-check of MDS behaviour rather than of byte-identical output.
    """

    def __init__(self, k: int, parity: int, field: GF | None = None):
        if k < 1 or parity < 1:
            raise ValueError("k and parity must be positive")
        self.field = field if field is not None else GF256
        self.k = k
        self.n = k + parity
        if self.n > self.field.order - 1:
            raise ValueError(
                f"blocklength {self.n} exceeds GF(2^{self.field.m}) limit "
                f"{self.field.order - 1}"
            )
        self.points = [self.field.exp(j) for j in range(self.n)]
        self.name = f"PolyRS({k},{parity})"

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Interpolate through the data points, then evaluate everywhere."""
        data = np.atleast_2d(np.asarray(data, dtype=self.field.dtype))
        if data.shape[0] != self.k:
            raise ValueError(f"expected {self.k} data blocks, got {data.shape[0]}")
        coded = np.zeros((self.n, data.shape[1]), dtype=self.field.dtype)
        coded[: self.k] = data
        data_points = self.points[: self.k]
        parity_points = self.points[self.k :]
        for col in range(data.shape[1]):
            message = _lagrange_interpolate(self.field, data_points, data[:, col])
            coded[self.k :, col] = _evaluate(self.field, message, parity_points)
        return coded

    def decode(self, available: Mapping[int, np.ndarray]) -> np.ndarray:
        """Interpolate through any k survivors, evaluate at data points."""
        indices = sorted(available)
        if len(indices) < self.k:
            raise DecodingError(
                f"{len(indices)} blocks available, at least {self.k} required"
            )
        chosen = indices[: self.k]
        chosen_points = [self.points[i] for i in chosen]
        stacked = np.stack(
            [np.asarray(available[i], dtype=self.field.dtype) for i in chosen]
        )
        data = np.zeros((self.k, stacked.shape[1]), dtype=self.field.dtype)
        data_points = self.points[: self.k]
        for col in range(stacked.shape[1]):
            message = _lagrange_interpolate(self.field, chosen_points, stacked[:, col])
            if message[self.k :].any():
                raise DecodingError(
                    "survivors are inconsistent with a degree-<k message"
                )
            data[:, col] = _evaluate(self.field, message, data_points)
        return data

    def repair(self, lost: int, available: Mapping[int, np.ndarray]) -> np.ndarray:
        """Heavy repair: decode, re-encode, keep block ``lost``."""
        return self.encode(self.decode(available))[lost]

    def repair_plans(self, lost: int) -> list[RepairPlan]:
        """MDS codes have no light plans (Lemma 1); repair is heavy."""
        if not 0 <= lost < self.n:
            raise ValueError(f"block index {lost} out of range [0, {self.n})")
        return []

    def is_decodable(self, indices) -> bool:
        """Any k distinct evaluations determine a degree-<k polynomial."""
        return len(set(indices)) >= self.k

    def minimum_distance(self) -> int:
        return self.n - self.k + 1

    def parameters(self) -> CodeParameters:
        return CodeParameters(
            k=self.k,
            n=self.n,
            locality=self.k,
            minimum_distance=self.minimum_distance(),
            name=self.name,
        )
