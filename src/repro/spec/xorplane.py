"""The naive bit-matrix XOR encoder: the compiled XOR plane's oracle."""

from __future__ import annotations

import numpy as np

from repro.codes.cauchy import CauchyRSCode, build_parity_bitmatrix
from repro.galois import GF

__all__ = ["xor_encode"]


def _to_bitrows(field: GF, blocks: np.ndarray) -> np.ndarray:
    """Expand (rows, width) field symbols into (rows*m, width) bit rows."""
    blocks = np.asarray(blocks, dtype=field.dtype)
    rows, width = blocks.shape
    out = np.zeros((rows * field.m, width), dtype=np.uint8)
    for bit in range(field.m):
        out[bit :: field.m] = (blocks >> bit) & 1
    return out


def _from_bitrows(field: GF, bitrows: np.ndarray) -> np.ndarray:
    """Pack (rows*m, width) bit rows back into field symbols."""
    total, width = bitrows.shape
    rows = total // field.m
    out = np.zeros((rows, width), dtype=field.dtype)
    for bit in range(field.m):
        out |= bitrows[bit :: field.m].astype(field.dtype) << bit
    return out


def xor_encode(code: CauchyRSCode, data: np.ndarray) -> np.ndarray:
    """Encode using only XORs: the naive bit-matrix product.

    Produces exactly the same ``(n, width)`` codeword as
    ``code.encode(data)``, but every parity bit-row is the XOR of the
    data bit-rows its bit-matrix row selects — the operation real
    implementations unroll into machine-word XOR loops.

    This is the *executable spec* of the compiled XOR plane: the
    ``xorplane`` entry in the difftest registry pairs this bit-by-bit
    formulation against :class:`~repro.codes.xorplane.XorSchedule`,
    which computes the same bitmatrix product as a CSE-factored word
    program (``tests/test_xorplane.py`` holds them byte-identical).
    """
    data = np.atleast_2d(np.asarray(data, dtype=code.field.dtype))
    if data.shape[0] != code.k:
        raise ValueError(f"expected {code.k} data blocks, got {data.shape[0]}")
    bitmatrix = build_parity_bitmatrix(code)
    data_bits = _to_bitrows(code.field, data)
    # Binary matmul mod 2: each output bit-row XORs the selected inputs.
    parity_bits = (bitmatrix @ data_bits) & 1
    parity = _from_bitrows(code.field, parity_bits.astype(np.uint8))
    return np.concatenate([data, parity], axis=0)
