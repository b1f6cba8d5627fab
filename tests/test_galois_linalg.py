"""Tests for exact linear algebra over GF(2^m)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.galois import (
    GF,
    GF16,
    GF256,
    gf_identity,
    gf_inv,
    gf_mat_vec,
    gf_matmul,
    gf_null_space,
    gf_rank,
    gf_rank_batch,
    gf_rref,
    gf_solve,
    gf_vandermonde,
)
from repro.galois import linalg


def random_matrix(field, rows, cols, seed):
    rng = np.random.default_rng(seed)
    return field.random_elements(rng, (rows, cols))


def random_invertible(field, n, seed):
    rng = np.random.default_rng(seed)
    while True:
        mat = field.random_elements(rng, (n, n))
        if gf_rank(field, mat) == n:
            return mat


class TestMatmul:
    def test_identity(self):
        a = random_matrix(GF256, 4, 4, 0)
        eye = gf_identity(GF256, 4)
        assert np.array_equal(gf_matmul(GF256, a, eye), a)
        assert np.array_equal(gf_matmul(GF256, eye, a), a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf_matmul(GF256, np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))

    def test_associativity(self):
        a = random_matrix(GF256, 3, 4, 1)
        b = random_matrix(GF256, 4, 5, 2)
        c = random_matrix(GF256, 5, 2, 3)
        left = gf_matmul(GF256, gf_matmul(GF256, a, b), c)
        right = gf_matmul(GF256, a, gf_matmul(GF256, b, c))
        assert np.array_equal(left, right)

    def test_mat_vec(self):
        a = random_matrix(GF256, 3, 3, 4)
        v = random_matrix(GF256, 3, 1, 5).reshape(-1)
        assert np.array_equal(
            gf_mat_vec(GF256, a, v), gf_matmul(GF256, a, v.reshape(-1, 1)).reshape(-1)
        )

    def test_gf2_matmul_matches_mod2(self):
        from repro.galois import GF

        f2 = GF(1)
        a = random_matrix(f2, 4, 4, 6)
        b = random_matrix(f2, 4, 4, 7)
        expected = (a.astype(int) @ b.astype(int)) % 2
        assert np.array_equal(gf_matmul(f2, a, b).astype(int), expected)


class TestRrefRank:
    def test_rank_of_identity(self):
        assert gf_rank(GF256, gf_identity(GF256, 5)) == 5

    def test_rank_of_zero(self):
        assert gf_rank(GF256, np.zeros((3, 4), dtype=np.uint8)) == 0

    def test_rref_idempotent(self):
        a = random_matrix(GF256, 4, 6, 8)
        reduced, pivots = gf_rref(GF256, a)
        again, pivots2 = gf_rref(GF256, reduced)
        assert np.array_equal(reduced, again)
        assert pivots == pivots2

    def test_rank_bounded(self):
        a = random_matrix(GF256, 3, 7, 9)
        assert gf_rank(GF256, a) <= 3

    def test_duplicate_rows_reduce_rank(self):
        a = random_matrix(GF256, 2, 5, 10)
        stacked = np.concatenate([a, a[:1]], axis=0)
        assert gf_rank(GF256, stacked) == gf_rank(GF256, a)


class TestInverseSolve:
    def test_inverse_roundtrip(self):
        a = random_invertible(GF256, 5, 11)
        inv = gf_inv(GF256, a)
        assert np.array_equal(gf_matmul(GF256, a, inv), gf_identity(GF256, 5))
        assert np.array_equal(gf_matmul(GF256, inv, a), gf_identity(GF256, 5))

    def test_singular_raises(self):
        singular = np.zeros((3, 3), dtype=np.uint8)
        singular[0, 0] = 1
        with pytest.raises(ValueError):
            gf_inv(GF256, singular)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            gf_inv(GF256, np.zeros((2, 3), dtype=np.uint8))

    def test_solve_vector(self):
        a = random_invertible(GF256, 4, 12)
        x = random_matrix(GF256, 4, 1, 13).reshape(-1)
        b = gf_mat_vec(GF256, a, x)
        assert np.array_equal(gf_solve(GF256, a, b), x)

    def test_solve_matrix_rhs(self):
        a = random_invertible(GF256, 4, 14)
        x = random_matrix(GF256, 4, 6, 15)
        b = gf_matmul(GF256, a, x)
        assert np.array_equal(gf_solve(GF256, a, b), x)


class TestNullSpace:
    def test_null_space_annihilates(self):
        h = random_matrix(GF256, 3, 8, 16)
        basis = gf_null_space(GF256, h)
        assert basis.shape[0] == 8 - gf_rank(GF256, h)
        product = gf_matmul(GF256, h, basis.T)
        assert not np.any(product)

    def test_null_space_full_rank_square(self):
        a = random_invertible(GF256, 4, 17)
        assert gf_null_space(GF256, a).shape[0] == 0

    def test_null_space_has_full_rank(self):
        h = random_matrix(GF16, 2, 6, 18)
        basis = gf_null_space(GF16, h)
        assert gf_rank(GF16, basis) == basis.shape[0]


class TestVandermonde:
    def test_all_square_submatrices_invertible(self):
        """The MDS-enabling property (paper Appendix D)."""
        from itertools import combinations

        points = [GF16.exp(j) for j in range(6)]
        v = gf_vandermonde(GF16, 3, points)
        for cols in combinations(range(6), 3):
            assert gf_rank(GF16, v[:, list(cols)]) == 3

    def test_first_row_all_ones(self):
        points = [GF256.exp(j) for j in range(5)]
        v = gf_vandermonde(GF256, 2, points)
        assert np.all(v[0] == 1)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            gf_vandermonde(GF256, 2, [1, 1, 2])


class TestLinalgProperties:
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_inverse_property(self, n, seed):
        a = random_invertible(GF16, n, seed)
        assert np.array_equal(
            gf_matmul(GF16, a, gf_inv(GF16, a)), gf_identity(GF16, n)
        )

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=3, max_value=7),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_rank_transpose_invariant(self, rows, cols, seed):
        a = random_matrix(GF16, rows, cols, seed)
        assert gf_rank(GF16, a) == gf_rank(GF16, a.T)


class TestRankBatch:
    @given(
        st.sampled_from([GF(1), GF16, GF256, GF(10)]),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
        st.floats(min_value=0.0, max_value=0.95),
        st.booleans(),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_gf_rank(self, field, batch, rows, cols, zeros, repeat, seed):
        """Zero-heavy, rank-deficient, tall, wide and empty stacks alike,
        through the dispatch and through each of its two kernels (the
        stacked elimination and the per-matrix one on Python ints)."""
        rng = np.random.default_rng(seed)
        stack = field.random_elements(rng, (batch, rows, cols))
        stack[rng.random(stack.shape) < zeros] = 0
        if repeat:
            stack[:, :, -1] = stack[:, :, 0]  # a repeated column
        expected = [gf_rank(field, m) for m in stack]
        for rank in (gf_rank_batch, linalg._rank_each, linalg._rank_stacked):
            ranks = rank(field, stack.copy())
            assert ranks.shape == (batch,)
            assert list(ranks) == expected

    def test_empty_batch_and_shape_check(self):
        assert gf_rank_batch(GF256, np.zeros((0, 3, 4))).shape == (0,)
        with pytest.raises(ValueError):
            gf_rank_batch(GF256, np.zeros((3, 4)))
