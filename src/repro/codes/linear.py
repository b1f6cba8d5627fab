"""Generic linear block codes defined by a generator matrix over GF(2^m).

Everything Reed-Solomon and LRC share lives here: encoding as a
matrix-vector product, erasure decoding by inverting a full-rank column
subset, systematisation, and exact computation of minimum distance and
locality by exhaustive enumeration (feasible for the stripe-sized codes
the paper deploys, n <= ~20).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from ..galois import (
    GF,
    gf_independent_columns,
    gf_inv,
    gf_matmul,
    gf_null_space,
    gf_rank,
    gf_rank_batch,
    gf_rref,
)
from .base import CodeParameters, ErasureCode, RepairPlan, survival_masks
from .engine import CodecEngine

__all__ = ["LinearCode", "systematize"]


def systematize(field: GF, generator: np.ndarray) -> np.ndarray:
    """Return an equivalent generator whose first k columns are identity.

    Applies the row transformation ``A = G[:, :k]^-1`` described in the
    paper's Appendix D: ``A @ G = [I_k | A @ G[:, k:]]``.  Row operations
    preserve the code (same row space), hence distance and locality.
    """
    k = generator.shape[0]
    prefix = generator[:, :k]
    transform = gf_inv(field, prefix)  # raises if the prefix is singular
    return gf_matmul(field, transform, generator)


class LinearCode(ErasureCode):
    """A (k, n-k) linear code given by its k x n generator matrix."""

    def __init__(self, field: GF, generator: np.ndarray, name: str = ""):
        generator = np.asarray(generator, dtype=field.dtype)
        if generator.ndim != 2:
            raise ValueError("generator must be a 2-D matrix")
        k, n = generator.shape
        if k == 0 or n < k:
            raise ValueError(f"invalid generator shape {generator.shape}")
        if gf_rank(field, generator) != k:
            raise ValueError("generator matrix must have full row rank")
        self.field = field
        self.k = k
        self.n = n
        self.generator = generator
        self.name = name or f"Linear({k},{n - k})"
        self._distance_cache: int | None = None
        self._engine: CodecEngine | None = None

    # -- the batched codec engine ---------------------------------------------

    @property
    def engine(self) -> CodecEngine:
        """The code's codec engine (decode-matrix cache + batched kernels)."""
        if self._engine is None:
            self._engine = CodecEngine(self)
        return self._engine

    def encode_stripes(self, data3d: np.ndarray) -> np.ndarray:
        """Batched encode through the engine: one kernel for all stripes,
        the XOR plane or the gather kernel as the slab size prices them."""
        return self.engine.encode_stripes(data3d)

    def encode_schedule(self):
        """The compiled XOR program for this code's encode (introspection,
        compiled on first use): the CLI reports its XOR-ops-per-byte density."""
        return self.engine.encode_schedule()

    def decode_stripes(self, available: Mapping[int, np.ndarray]) -> np.ndarray:
        """Batched heavy decode through the engine's cached decode matrix."""
        return self.engine.decode_stripes(available)

    def reconstruct(
        self, lost: Sequence[int], available: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Batched rebuild through the engine's cached reconstruction matrix."""
        return self.engine.reconstruct(lost, available)

    def repair_stripes(
        self, lost: int, available: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Batched light-first repair through the engine."""
        return self.engine.repair_stripes(lost, available)

    def _independent_columns(self, indices: Sequence[int]) -> list[int] | None:
        """Greedily pick k linearly independent generator columns.

        One incremental Gaussian elimination over the candidate scan (the
        seed recomputed a full rank per candidate, making the selection
        quadratic in k for no benefit — the greedy acceptance criterion
        is identical).
        """
        chosen = gf_independent_columns(
            self.field, self.generator, indices, target_rank=self.k
        )
        return chosen if len(chosen) == self.k else None

    @cached_property
    def parity_check(self) -> np.ndarray:
        """An ``(n - k) x n`` parity-check matrix ``H``: ``G Hᵀ = 0``."""
        return gf_null_space(self.field, self.generator)

    def decodable(self, masks) -> np.ndarray:
        """Whether each survival bitmask determines the file, as a bool array.

        Parity-check criterion: survivors decode iff no non-zero codeword
        is supported on the erased positions ``E``, i.e. iff the columns
        of :attr:`parity_check` at ``E`` are linearly independent.  More
        than ``n - k`` erasures fail by counting; every other pattern
        gathers its erased columns into one matrix of the batch's widest
        erasure count (zero columns pad the rest), and one
        :func:`gf_rank_batch` over the stack compares each rank with its
        erasure count.
        """
        erased = ~self.survivor_bits(masks)
        counts = erased.sum(axis=1)
        result = counts <= self.n - self.k
        rows = np.flatnonzero(result & (counts > 0))
        if rows.size:
            counts = counts[rows]
            width = counts.max()
            # A stable sort puts each row's erased positions first, ascending.
            columns = np.argsort(~erased[rows], axis=1, kind="stable")[:, :width]
            stack = self.parity_check[:, columns].transpose(1, 0, 2)
            stack *= (np.arange(width) < counts[:, None])[:, None, :]
            result[rows] = gf_rank_batch(self.field, stack) == counts
        return result

    # -- repair ---------------------------------------------------------------

    def repair_plans(self, lost: int) -> list[RepairPlan]:
        """Base linear codes advertise no light plans; see subclasses."""
        if not 0 <= lost < self.n:
            raise ValueError(f"block index {lost} out of range [0, {self.n})")
        return []

    # -- exact structural analysis --------------------------------------------

    def minimum_distance(self) -> int:
        """Exact minimum distance by erasure-pattern enumeration.

        d is the smallest e such that erasing some e blocks leaves a
        non-decodable survivor set (Definition 1).  Exponential in the
        worst case; intended for stripe-sized codes.
        """
        if self._distance_cache is None:
            self._distance_cache = self._compute_distance()
        return self._distance_cache

    def _compute_distance(self) -> int:
        """One :meth:`decodable` call per erasure count, smallest first."""
        for erasures in range(1, self.n - self.k + 2):
            if not self.decodable(survival_masks(self.n, erasures)).all():
                return erasures
        return self.n - self.k + 1  # MDS: unreachable fallthrough guard

    def block_locality(self, index: int, max_r: int | None = None) -> int:
        """Exact locality of one block: the smallest r such that its
        generator column lies in the span of r other columns
        (Definition 2).  Searches subsets of increasing size; each size
        is one batched elimination over every subset ``S``, comparing
        the ranks of ``[G[:, S] | 0]`` and ``[G[:, S] | g_index]``.
        """
        (index,) = self._positions([index])
        if max_r is None:
            max_r = self.k
        others = [j for j in range(self.n) if j != index]
        for r in range(1, min(max_r, len(others)) + 1):
            subsets = np.array(list(combinations(others, r)))
            stack = np.zeros((2, len(subsets), self.k, r + 1), self.field.dtype)
            stack[:, :, :, :r] = self.generator[:, subsets].transpose(1, 0, 2)
            stack[1, :, :, r] = self.generator[:, index]
            ranks = gf_rank_batch(self.field, stack.reshape(-1, self.k, r + 1))
            without, with_target = ranks.reshape(2, -1)
            if np.any(without == with_target):
                return r
        return max_r + 1  # locality exceeds the search bound

    def solve_repair_coefficients(
        self, lost: int, sources: Sequence[int]
    ) -> tuple[int, ...] | None:
        """Express column ``lost`` as a combination of ``sources``.

        Returns the coefficient tuple, or None if ``lost`` is not in the
        span.  Used to turn a discovered repair group into an executable
        :class:`RepairPlan`.
        """
        self._positions([lost, *sources])
        basis = self.generator[:, list(sources)]
        target = self.generator[:, lost].reshape(-1, 1)
        augmented = np.concatenate([basis, target], axis=1)
        reduced, pivots = gf_rref(self.field, augmented)
        if len(sources) in pivots:
            return None  # the target column introduced a new pivot: not in span
        coeffs = [0] * len(sources)
        for row, pivot in enumerate(pivots):
            coeffs[pivot] = int(reduced[row, -1])
        return tuple(coeffs)

    # -- metadata ---------------------------------------------------------------

    def parameters(self) -> CodeParameters:
        plans = [self.repair_plans(i) for i in range(self.n)]
        if all(plans):
            locality = max(min(p.num_reads for p in per_block) for per_block in plans)
        else:
            locality = self.k  # MDS-style worst case (Lemma 1)
        return CodeParameters(
            k=self.k,
            n=self.n,
            locality=locality,
            minimum_distance=self._distance_cache,
            name=self.name,
        )

    def is_systematic(self) -> bool:
        identity = np.eye(self.k, dtype=self.field.dtype)
        return np.array_equal(self.generator[:, : self.k], identity)
