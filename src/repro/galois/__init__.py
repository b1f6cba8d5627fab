"""Finite-field substrate: GF(2^m) arithmetic and exact linear algebra.

This package is the foundation every code construction in
:mod:`repro.codes` builds on.  It corresponds to the ``GaloisField``
utility layer of HDFS-RAID that the paper's ErasureCode component relies
on (Section 3), implemented from scratch with numpy-vectorised kernels.
"""

from .bitplane import (
    gf_element_bitmatrix,
    gf_matrix_to_bitmatrix,
    pack_bitplanes,
    unpack_bitplanes,
)
from .field import GF, GF16, GF256
from .linalg import (
    gf_identity,
    gf_independent_columns,
    gf_inv,
    gf_mat_vec,
    gf_matmul,
    gf_matmul_batch,
    gf_null_space,
    gf_rank,
    gf_rank_batch,
    gf_rref,
    gf_slabs,
    gf_solve,
    gf_vandermonde,
)
from .primitive import (
    PRIMITIVE_POLYNOMIALS,
    default_primitive_poly,
    find_primitive_poly,
    is_primitive,
)

__all__ = [
    "GF",
    "GF16",
    "GF256",
    "PRIMITIVE_POLYNOMIALS",
    "default_primitive_poly",
    "find_primitive_poly",
    "is_primitive",
    "gf_element_bitmatrix",
    "gf_matrix_to_bitmatrix",
    "pack_bitplanes",
    "unpack_bitplanes",
    "gf_identity",
    "gf_independent_columns",
    "gf_inv",
    "gf_mat_vec",
    "gf_matmul",
    "gf_matmul_batch",
    "gf_null_space",
    "gf_rank",
    "gf_rank_batch",
    "gf_rref",
    "gf_slabs",
    "gf_solve",
    "gf_vandermonde",
]
