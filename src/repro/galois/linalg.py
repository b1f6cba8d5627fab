"""Dense linear algebra over GF(2^m).

Provides the handful of matrix primitives the coding layer needs:
multiplication, Gauss-Jordan reduction, rank, inversion, solving, and
null-space computation.  Matrices are plain numpy arrays of field-element
integers; every function takes the field as an explicit first argument
(explicit is better than implicit — and it keeps the arrays cheap).

These routines are exact: there is no floating point anywhere, so rank
decisions are never numerically ambiguous.  That exactness is what lets
the test-suite *certify* minimum distances by enumerating erasure
patterns.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .field import GF

__all__ = [
    "gf_matmul",
    "gf_matmul_batch",
    "gf_mat_vec",
    "gf_slabs",
    "gf_identity",
    "gf_independent_columns",
    "gf_rref",
    "gf_rank",
    "gf_rank_batch",
    "gf_inv",
    "gf_solve",
    "gf_null_space",
    "gf_vandermonde",
]


def _as_matrix(field: GF, a) -> np.ndarray:
    arr = np.asarray(a, dtype=field.dtype)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def gf_identity(field: GF, n: int) -> np.ndarray:
    """The n x n identity matrix over the field."""
    return np.eye(n, dtype=field.dtype)


def gf_matmul(field: GF, a, b) -> np.ndarray:
    """Matrix product over GF(2^m).

    Implemented as a sum (XOR) of scaled rows — one vectorised pass per
    inner index, which is fast for the small-k by large-payload products
    that dominate encoding.
    """
    a = _as_matrix(field, a)
    b = _as_matrix(field, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=field.dtype)
    # Loops cover the (rows, k) code dimensions only; each addmul is one
    # vectorized pass over the full payload width.
    for i in range(a.shape[0]):
        acc = out[i]
        row = a[i]
        for k in range(a.shape[1]):
            field.addmul(acc, row[k], b[k])
    return out


def gf_slabs(field: GF, slabs) -> tuple[list[np.ndarray], int, int]:
    """The input blocks of a batched product, as ``(stripes, width)`` slabs.

    ``slabs`` is a sequence with one array per input block: a
    ``(stripes, width)`` slab, or one ``(width,)`` payload, promoted to a
    single stripe.  A ``(stripes, k, width)`` batch passes as its
    ``transpose(1, 0, 2)`` view.  Slabs are read where they lie (strided
    views included); only a dtype conversion copies.  Returns ``(slabs,
    stripes, width)``; a slab of another ndim, or whose shape differs from
    the first's, raises ValueError.
    """
    out: list[np.ndarray] = []
    for index, slab in enumerate(slabs):
        slab = np.asarray(slab, dtype=field.dtype)
        if slab.ndim == 1:
            slab = slab[None, :]
        if slab.ndim != 2:
            raise ValueError(
                f"block {index}: expected (width,) or (stripes, width), "
                f"got shape {slab.shape}"
            )
        if out and slab.shape != out[0].shape:
            raise ValueError(
                f"block {index}: shape {slab.shape} differs from {out[0].shape}"
            )
        out.append(slab)
    stripes, width = out[0].shape if out else (0, 0)
    return out, stripes, width


def gf_matmul_batch(field: GF, a, slabs) -> np.ndarray:
    """Multiply one matrix against a whole batch of stripes at once.

    ``a`` is ``(r, k)``; ``slabs`` holds the k input blocks, one
    ``(stripes, width)`` slab each (see :func:`gf_slabs`).  Returns
    ``(stripes, r, width)`` with ``out[s] = a @ [slab[s] for slab in
    slabs]`` over the field.

    The contraction loops only over the k inner coefficients; each step
    is a single table gather across every stripe and byte of one slab
    (full product table for m <= 8, split log/antilog tables above), so
    the per-stripe Python overhead of repeated :func:`gf_matmul` calls
    disappears.  This is the kernel under the codec engine's gather
    route.
    """
    a = _as_matrix(field, a)
    slabs, stripes, width = gf_slabs(field, slabs)
    rows, k = a.shape
    if len(slabs) != k:
        raise ValueError(f"shape mismatch: {a.shape} x {len(slabs)} slabs")
    out = np.zeros((stripes, rows, width), dtype=field.dtype)
    targets = [out[:, i] for i in range(rows)]
    table = field.mul_table
    # (k, rows) are code dimensions; every operation below acts on a
    # whole (stripes, width) slab at once.
    for plane, column in zip(slabs, a.T.tolist()):
        index = None  # computed lazily, shared by every row needing it
        log_plane = None
        zero_mask = None
        for target, coeff in zip(targets, column):
            if coeff == 0:
                continue
            if coeff == 1:  # identity columns and XOR parities: plain xor
                target ^= plane
            elif table is not None:
                # Widened once per slab: indexing with the uint8 slab itself
                # makes numpy widen it again for every row (2x slower).
                if index is None:
                    index = plane.astype(np.intp)
                target ^= table[coeff][index]
            else:  # m > 8: no full product table, use the split tables
                if log_plane is None:
                    log_plane = field._log[plane]
                    zero_mask = plane == 0
                scaled = field._exp[log_plane + field._log[coeff]]
                scaled[zero_mask] = 0
                target ^= scaled
    return out


def gf_mat_vec(field: GF, a, v) -> np.ndarray:
    """Matrix-vector product over GF(2^m)."""
    v = np.asarray(v, dtype=field.dtype)
    if v.ndim != 1:
        raise ValueError("expected a 1-D vector")
    return gf_matmul(field, a, v.reshape(-1, 1)).reshape(-1)


def gf_rref(field: GF, a) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form.

    Returns ``(rref_matrix, pivot_columns)``.  Pivoting simply takes the
    first non-zero entry in the column — over an exact field any non-zero
    pivot is as good as any other.
    """
    mat = _as_matrix(field, a).copy()
    rows, cols = mat.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if mat[i, c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            mat[[r, pivot_row]] = mat[[pivot_row, r]]
        inv_pivot = field.inv(mat[r, c])
        mat[r] = field.mul(mat[r], inv_pivot)
        for i in range(rows):
            if i != r and mat[i, c] != 0:
                field.addmul(mat[i], mat[i, c], mat[r])
        pivots.append(c)
        r += 1
    return mat, pivots


def gf_rank(field: GF, a) -> int:
    """Rank of a matrix over GF(2^m)."""
    _, pivots = gf_rref(field, a)
    return len(pivots)


#: Below this much elimination work (``batch * rows * min(rows, cols)``)
#: :func:`gf_rank_batch` ranks matrix by matrix on Python ints: the
#: batched elimination pays ~60 µs of numpy calls per column whatever the
#: batch, while one 6 x 6 parity-check stack costs ~19 µs on Python ints
#: and ~350 µs batched (2-core box); the two meet near 20 such stacks.
SMALL_RANK_WORK = 720


def gf_rank_batch(field: GF, stack) -> np.ndarray:
    """Ranks of a ``(batch, rows, cols)`` stack of matrices, as an int array.

    A large stack runs one column-by-column elimination across the whole
    batch: at column c every matrix that still has a non-zero entry at or
    below its current rank row swaps it up, normalises it and clears the
    column below it, so the Python loop is over the columns only.  A
    stack below :data:`SMALL_RANK_WORK` is eliminated one matrix at a
    time on Python ints (a decodability check of one erasure pattern),
    where the batched kernel's per-column numpy calls would dominate.
    """
    mat = np.array(stack, dtype=field.dtype)
    if mat.ndim != 3:
        raise ValueError(f"expected a (batch, rows, cols) stack, got {mat.shape}")
    batch, rows, cols = mat.shape
    if batch * rows * min(rows, cols) < SMALL_RANK_WORK:
        return _rank_each(field, mat)
    return _rank_stacked(field, mat)


def _rank_stacked(field: GF, mat: np.ndarray) -> np.ndarray:
    """The batched elimination of :func:`gf_rank_batch` (in place on ``mat``)."""
    batch, rows, cols = mat.shape
    rank = np.zeros(batch, dtype=np.intp)
    row_ids = np.arange(rows)
    for c in range(cols):
        eligible = (mat[:, :, c] != 0) & (row_ids >= rank[:, None])
        b = eligible.any(axis=1).nonzero()[0]  # matrices with a pivot here
        if not b.size:
            continue
        r, p = rank[b], eligible[b].argmax(axis=1)
        pivot = mat[b, p]
        mat[b, p] = mat[b, r]
        pivot = field.mul(pivot, field.inv(pivot[:, c])[:, None])
        mat[b, r] = pivot
        factors = np.where(row_ids > r[:, None], mat[b, :, c], 0)
        mat[b] ^= field.mul(factors[:, :, None], pivot[:, None, :])
        rank[b] += 1
    return rank


@lru_cache(maxsize=None)
def _log_tables(field: GF) -> tuple[list[int], list[int]]:
    """The field's antilog and log tables as Python lists."""
    return field._exp.tolist(), field._log.tolist()


def _rank_each(field: GF, mat: np.ndarray) -> np.ndarray:
    """The per-matrix elimination of :func:`gf_rank_batch` on Python ints.

    Forward elimination only: each pivot row clears the column below it,
    scaled by ``entry / pivot`` through the log tables.
    """
    exp, log = _log_tables(field)
    group = field.order - 1
    ranks = []
    for matrix in mat.tolist():
        rank = 0
        for c in range(len(matrix[0]) if matrix else 0):
            pivot = next((i for i in range(rank, len(matrix)) if matrix[i][c]), None)
            if pivot is None:
                continue
            matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
            top = matrix[rank]
            inverse = group - log[top[c]]
            for i in range(rank + 1, len(matrix)):
                entry = matrix[i][c]
                if entry:
                    scale = (log[entry] + inverse) % group
                    matrix[i] = [
                        a ^ exp[scale + log[b]] if b else a
                        for a, b in zip(matrix[i], top)
                    ]
            rank += 1
        ranks.append(rank)
    return np.array(ranks, dtype=np.intp)


def gf_independent_columns(
    field: GF, a, candidates, target_rank: int | None = None
) -> list[int]:
    """Greedy prefix of ``candidates`` whose columns are independent.

    Scans the candidate column indices in order, accepting each column
    that increases the rank of the accepted set — the same selection the
    decoders' greedy survivor choice makes — but runs *one* incremental
    Gaussian elimination across the whole scan: each candidate is reduced
    against the current echelon basis (O(rank) axpys) instead of
    recomputing the rank of the accepted set from scratch per candidate.
    Stops early once ``target_rank`` columns are accepted (defaults to
    the row count, i.e. full rank).
    """
    a = _as_matrix(field, a)
    if target_rank is None:
        target_rank = a.shape[0]
    chosen: list[int] = []
    basis: list[tuple[int, np.ndarray]] = []  # (pivot row, normalised column)
    for idx in candidates:
        vector = a[:, idx].copy()
        for pivot, reduced in basis:
            coeff = vector[pivot]
            if coeff:
                field.addmul(vector, coeff, reduced)
        nonzero = np.flatnonzero(vector)
        if nonzero.size == 0:
            continue  # dependent on the accepted columns
        pivot = int(nonzero[0])
        vector = np.asarray(
            field.mul(vector, field.inv(vector[pivot])), dtype=field.dtype
        )
        basis.append((pivot, vector))
        chosen.append(int(idx))
        if len(chosen) == target_rank:
            break
    return chosen


def gf_inv(field: GF, a) -> np.ndarray:
    """Inverse of a square matrix; raises ValueError if singular."""
    mat = _as_matrix(field, a)
    n, m = mat.shape
    if n != m:
        raise ValueError(f"cannot invert non-square matrix of shape {mat.shape}")
    augmented = np.concatenate([mat, gf_identity(field, n)], axis=1)
    reduced, pivots = gf_rref(field, augmented)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over GF(2^m)")
    return reduced[:, n:]


def gf_solve(field: GF, a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for square non-singular ``a``.

    ``b`` may be a vector or a matrix of stacked right-hand sides (the
    common case when decoding: one column per payload byte position).
    """
    b_arr = np.asarray(b, dtype=field.dtype)
    vector_rhs = b_arr.ndim == 1
    if vector_rhs:
        b_arr = b_arr.reshape(-1, 1)
    x = gf_matmul(field, gf_inv(field, a), b_arr)
    return x.reshape(-1) if vector_rhs else x


def gf_null_space(field: GF, a) -> np.ndarray:
    """Basis for the right null space, rows = basis vectors.

    Used to derive a generator matrix from a parity-check matrix: the code
    C = {x : H xᵀ = 0} is exactly the null space of H.
    """
    mat = _as_matrix(field, a)
    rows, cols = mat.shape
    reduced, pivots = gf_rref(field, mat)
    free_cols = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free_cols), cols), dtype=field.dtype)
    for idx, free in enumerate(free_cols):
        basis[idx, free] = 1
        for row, pivot in enumerate(pivots):
            # x_pivot = -sum(coeff * x_free); minus is plus in char 2.
            basis[idx, pivot] = reduced[row, free]
    return basis


def gf_vandermonde(field: GF, rows: int, points) -> np.ndarray:
    """Vandermonde matrix V[i, j] = points[j] ** i over the field.

    With distinct non-zero evaluation points every square submatrix formed
    by choosing ``rows`` columns is invertible — the property that makes
    Reed-Solomon codes MDS (Appendix D of the paper).
    """
    points = [int(p) for p in points]
    if len(set(points)) != len(points):
        raise ValueError("Vandermonde evaluation points must be distinct")
    out = np.zeros((rows, len(points)), dtype=field.dtype)
    for j, p in enumerate(points):
        value = 1
        for i in range(rows):
            out[i, j] = value
            value = int(field.mul(value, p))
    return out
