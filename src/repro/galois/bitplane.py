"""GF(2) bit-plane kernels: bitmatrix expansion and word-wide bit slicing.

The XOR execution plane (:mod:`repro.codes.xorplane`) rewrites GF(2^m)
matrix products as pure XOR programs over *bit planes*: plane ``b`` of a
symbol slab is the packed bit-vector of bit ``b`` across all symbols.
This module supplies the two primitives that rewrite needs:

* :func:`gf_element_bitmatrix` / :func:`gf_matrix_to_bitmatrix` — the
  GF(2^m) -> GF(2)^{m x m} ring homomorphism, applied element- and
  matrix-wise (the generalisation of the Cauchy-RS construction in
  :mod:`repro.codes.cauchy` to *any* coefficient matrix);
* :func:`pack_bitplanes` / :func:`unpack_bitplanes` — the transposition
  between symbol order and bit-plane order for a batch of blocks.  A
  block of N symbols (zero-padded to a multiple of 64) is viewed as 8
  rows of N/8 bytes, and a *lane-parallel* transpose — three delta-swap
  stages between row pairs (Hacker's Delight 7-3, across rows rather
  than within a word) — turns each byte lane's 8 x 8 bit matrix over,
  so that row s afterwards *is* plane s.  There is no byte shuffle:
  every stage is a handful of uint64 ufuncs over whole rows, and the
  transform is its own inverse, so unpacking is the same call.

Bit planes are 1/8 the slab size, so a schedule op over planes touches
8x less memory than a symbol-wide pass — that ratio is what makes
compiled XOR schedules beat table-gather multiplication.
"""

from __future__ import annotations

import numpy as np

from .field import GF

__all__ = [
    "gf_element_bitmatrix",
    "gf_matrix_to_bitmatrix",
    "pack_bitplanes",
    "unpack_bitplanes",
]

#: (row distance, shift, byte mask) of the lane transpose's delta swaps.
_LANE_STAGES = tuple(
    (distance, np.uint64(distance), np.uint64(mask))
    for distance, mask in (
        (4, 0x0F0F0F0F0F0F0F0F),
        (2, 0x3333333333333333),
        (1, 0x5555555555555555),
    )
)
#: Lanes per transpose piece: 16384 x 8 rows x 8 bytes = 1 MB, which
#: with its half-size scratch stays in a 4 MB L2 through all 18 passes
#: (a 10-block batch of 2 MB blocks packs 2.5x faster than in one piece).
_PIECE_LANES = 1 << 14


def gf_element_bitmatrix(field: GF, element: int) -> np.ndarray:
    """The m x m GF(2) matrix of multiplication by ``element``.

    Column t holds the bit-decomposition of ``element * alpha^t``, so
    for bit-vectors v: ``bits(element * val(v)) = M @ v (mod 2)``.
    This is a ring homomorphism — M(a) + M(b) = M(a XOR b) over GF(2)
    and M(a) @ M(b) = M(a*b) — which is what makes an expanded
    coefficient matrix compute the same codeword as field arithmetic.
    """
    m = field.m
    matrix = np.zeros((m, m), dtype=np.uint8)
    for t in range(m):
        product = field.mul(int(element), field.exp(t)) if element else 0
        for bit in range(m):
            matrix[bit, t] = (int(product) >> bit) & 1
    return matrix


_BITMATRIX_TABLES: dict[tuple[int, int], np.ndarray] = {}


def _bitmatrix_table(field: GF) -> np.ndarray:
    """All ``order`` element bitmatrices at once: ``(order, m, m)`` uint8.

    Memoised per field (schedule compilation expands thousands of
    matrices over the same field) and built from the full
    multiplication table in three vectorised ops.
    """
    key = (field.m, field.primitive_poly)
    table = _BITMATRIX_TABLES.get(key)
    if table is None:
        m = field.m
        powers = np.array([field.exp(t) for t in range(m)])
        products = field.mul_table[:, powers]  # (order, m): element * alpha^t
        table = ((products[:, None, :] >> np.arange(m)[None, :, None]) & 1).astype(
            np.uint8
        )
        _BITMATRIX_TABLES[key] = table
    return table


def gf_matrix_to_bitmatrix(field: GF, matrix) -> np.ndarray:
    """Expand an (r, c) GF(2^m) matrix into its (r*m, c*m) GF(2) form.

    Block (i, j) is :func:`gf_element_bitmatrix` of ``matrix[i, j]``, so
    the binary product over bit-decomposed symbols reproduces the field
    product exactly.
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
    rows, cols = mat.shape
    m = field.m
    if field.mul_table is not None:
        blocks = _bitmatrix_table(field)[mat.astype(np.intp)]  # (rows, cols, m, m)
        return blocks.transpose(0, 2, 1, 3).reshape(rows * m, cols * m)
    bits = np.zeros((rows * m, cols * m), dtype=np.uint8)
    cache: dict[int, np.ndarray] = {}
    for i in range(rows):
        for j in range(cols):
            element = int(mat[i, j])
            if element == 0:
                continue
            block = cache.get(element)
            if block is None:
                block = cache[element] = gf_element_bitmatrix(field, element)
            bits[i * m : (i + 1) * m, j * m : (j + 1) * m] = block
    return bits


def _lane_transpose(words: np.ndarray) -> None:
    """Transpose every byte lane's 8 x 8 bit matrix, in place (an involution).

    ``words`` is a contiguous ``(blocks, 8, lanes)`` uint64 array: 8 rows
    per block.  Byte ``g`` of the 8 rows forms an 8 x 8 bit matrix (row
    ``t``, bit ``s``); afterwards row ``s``, byte ``g``, bit ``t`` holds
    the input's row ``t``, byte ``g``, bit ``s``.  Lanes are independent,
    so the work goes in pieces of about :data:`_PIECE_LANES` lanes x 8
    rows — whole blocks grouped when they are small, a block's lanes
    split when it is large — which keep the 18 passes in cache.
    """
    blocks, _, lanes = words.shape
    group = max(1, _PIECE_LANES // max(lanes, 1))
    for first in range(0, blocks, group):
        for lane in range(0, lanes, _PIECE_LANES):
            _delta_swaps(words[first : first + group, :, lane : lane + _PIECE_LANES])


def _delta_swaps(words: np.ndarray) -> None:
    """The lane transpose of one piece: three delta-swap stages between
    row pairs at distance 4, 2 and 1 (Hacker's Delight 7-3 applied
    across rows instead of within a word), 18 ufunc calls."""
    blocks, _, lanes = words.shape
    scratch = np.empty((blocks, 4, lanes), dtype=np.uint64)
    for distance, shift, mask in _LANE_STAGES:
        pairs = words.reshape((blocks, 4 // distance, 2, distance, lanes), copy=False)
        low, high = pairs[:, :, 0], pairs[:, :, 1]
        t = scratch.reshape(blocks, 4 // distance, distance, lanes)
        np.right_shift(low, shift, out=t)
        np.bitwise_xor(t, high, out=t)
        np.bitwise_and(t, mask, out=t)
        np.bitwise_xor(high, t, out=high)
        np.left_shift(t, shift, out=t)
        np.bitwise_xor(low, t, out=low)


def pack_bitplanes(symbols) -> np.ndarray:
    """Slice a batch of uint8 symbol blocks into bit planes.

    ``symbols`` is a ``(blocks, ...)`` array, or a sequence of equally
    sized arrays (strided views are fine: each is copied once into the
    padded buffer).  Each block of N symbols is zero-padded to a
    multiple of 64 and viewed as 8 rows of ``N/8`` bytes; the lane
    transpose turns row ``s`` into plane ``s``.  Returns ``(blocks, 8,
    N/8)`` uint8 where plane ``s``, byte ``g``, bit ``t`` is bit ``s``
    of symbol ``t * N/8 + g``.  The zero pad is safe everywhere the
    planes are used: the codes are linear, so zero inputs contribute
    nothing, and :func:`unpack_bitplanes` truncates it back off.
    Planes beyond a field's ``m`` come out zero.
    """
    count = len(symbols)
    length = np.size(symbols[0])
    padded = -(-length // 64) * 64
    buf = np.empty((count, padded), dtype=np.uint8)
    buf[:, length:] = 0
    for row, block in zip(buf, symbols):
        np.copyto(row[:length].reshape(np.shape(block)), block)
    _lane_transpose(buf.view(np.uint64).reshape(count, 8, padded // 64))
    return buf.reshape(count, 8, padded // 8)


def unpack_bitplanes(planes: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_bitplanes`: ``(blocks, rows, width)`` planes
    back to ``(blocks, length)`` symbols.

    The same lane transpose, on a copy: planes beyond the given ``rows``
    (at most 8) are taken as zero, matching symbol values below ``2^m``.
    ``width`` must be a multiple of 8.  A plane slice ``[g0, g1)`` of
    every plane unpacks to the symbols ``t * N/8 + g`` for ``g`` in the
    slice, row ``t`` after row — which is how the XOR plane unpacks one
    chunk at a time.
    """
    planes = np.asarray(planes, dtype=np.uint8)
    count, rows, width = planes.shape
    buf = np.empty((count, 8, width), dtype=np.uint8)
    buf[:, :rows] = planes
    buf[:, rows:] = 0
    _lane_transpose(buf.view(np.uint64))
    return buf.reshape(count, 8 * width)[:, :length]
