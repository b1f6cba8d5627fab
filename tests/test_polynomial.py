"""Tests for GF(2^m) polynomials and the evaluation-style RS codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import DecodingError, ReedSolomonCode
from repro.galois import GF16, GF256
from repro.galois.polynomial import Poly, evaluate_many, lagrange_interpolate
from repro.spec.codec import PolynomialRSCode


def poly16(draw_coeffs):
    return Poly(GF16, draw_coeffs)


coeff_lists = st.lists(st.integers(min_value=0, max_value=15), min_size=0, max_size=8)


class TestPolyBasics:
    def test_zero_polynomial_degree(self):
        assert Poly.zero(GF16).degree == -1
        assert Poly(GF16, [0, 0, 0]).degree == -1
        assert Poly.zero(GF16).is_zero()

    def test_normalisation_strips_leading_zeros(self):
        p = Poly(GF16, [3, 1, 0, 0])
        assert p.degree == 1
        assert list(p.coeffs) == [3, 1]

    def test_monomial(self):
        p = Poly.monomial(GF16, 3, coeff=5)
        assert p.degree == 3
        assert p.coefficient(3) == 5
        assert p.coefficient(0) == 0
        assert p.coefficient(10) == 0

    def test_monomial_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            Poly.monomial(GF16, -1)

    def test_leading_coefficient_of_zero_rejected(self):
        with pytest.raises(ValueError):
            Poly.zero(GF16).leading_coefficient()

    def test_monic(self):
        p = Poly(GF16, [6, 0, 7])
        m = p.monic()
        assert m.leading_coefficient() == 1
        # Scaling back recovers p.
        assert m.scale(7) == p

    def test_repr_readable(self):
        assert repr(Poly.zero(GF16)) == "Poly(0)"
        assert "x^2" in repr(Poly(GF16, [0, 0, 1]))

    def test_mixed_field_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            Poly(GF16, [1]) + Poly(GF256, [1])

    def test_equality_and_hash(self):
        a = Poly(GF16, [1, 2, 3])
        b = Poly(GF16, [1, 2, 3, 0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Poly(GF16, [1, 2])


class TestPolyArithmetic:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_addition_is_commutative_and_self_inverse(self, a, b):
        pa, pb = Poly(GF16, a), Poly(GF16, b)
        assert pa + pb == pb + pa
        assert (pa + pb) + pb == pa  # characteristic 2

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_multiplication_degree_and_commutativity(self, a, b):
        pa, pb = Poly(GF16, a), Poly(GF16, b)
        prod = pa * pb
        assert prod == pb * pa
        if pa.is_zero() or pb.is_zero():
            assert prod.is_zero()
        else:
            assert prod.degree == pa.degree + pb.degree

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_divmod_roundtrip(self, a, b):
        pa, pb = Poly(GF16, a), Poly(GF16, b)
        if pb.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(pa, pb)
            return
        q, r = divmod(pa, pb)
        assert q * pb + r == pa
        assert r.degree < pb.degree

    @given(coeff_lists, st.integers(min_value=0, max_value=15))
    @settings(max_examples=60, deadline=None)
    def test_evaluation_matches_naive(self, coeffs, x):
        p = Poly(GF16, coeffs)
        expected = 0
        for i, c in enumerate(coeffs):
            expected ^= GF16.mul(c, GF16.pow(x, i))
        assert int(p(x)) == int(expected)

    def test_evaluation_broadcasts_over_arrays(self):
        p = Poly(GF16, [1, 1])  # x + 1
        points = GF16.elements()
        values = p(points)
        assert values.shape == points.shape
        assert int(values[1]) == 0  # root at x = 1

    def test_from_roots_has_exactly_those_roots(self):
        roots = [1, 3, 7]
        p = Poly.from_roots(GF16, roots)
        assert p.degree == 3
        assert sorted(p.roots()) == sorted(roots)

    def test_derivative_drops_even_terms(self):
        # d/dx (c0 + c1 x + c2 x^2 + c3 x^3) = c1 + 3 c3 x^2 = c1 + c3 x^2.
        p = Poly(GF16, [9, 5, 6, 7])
        d = p.derivative()
        assert d.coefficient(0) == 5
        assert d.coefficient(1) == 0
        assert d.coefficient(2) == 7

    def test_derivative_of_constant_is_zero(self):
        assert Poly(GF16, [4]).derivative().is_zero()


class TestLagrange:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=15), min_size=1, max_size=6, unique=True
        ),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_interpolation_passes_through_samples(self, points, data):
        values = [
            data.draw(st.integers(min_value=0, max_value=15)) for _ in points
        ]
        p = lagrange_interpolate(GF16, points, values)
        assert p.degree < len(points)
        for x, y in zip(points, values):
            assert int(p(x)) == y

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            lagrange_interpolate(GF16, [1, 1], [2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lagrange_interpolate(GF16, [1, 2], [3])

    def test_recovers_known_polynomial(self):
        p = Poly(GF256, [7, 11, 13])
        points = [1, 2, 3, 4]
        values = [int(p(x)) for x in points]
        q = lagrange_interpolate(GF256, points, values)
        assert q == p

    def test_evaluate_many_matches_per_column_horner(self):
        rng = np.random.default_rng(7)
        coeffs = rng.integers(0, 256, size=(4, 9)).astype(np.uint8)
        points = [GF256.exp(j) for j in range(6)]
        batch = evaluate_many(GF256, coeffs, points)
        for col in range(coeffs.shape[1]):
            p = Poly(GF256, coeffs[:, col])
            for row, x in enumerate(points):
                assert int(batch[row, col]) == int(p(x))


class TestPolynomialRS:
    def test_systematic_prefix(self):
        code = PolynomialRSCode(10, 4)
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=(10, 16)).astype(np.uint8)
        coded = code.encode(data)
        assert coded.shape == (14, 16)
        np.testing.assert_array_equal(coded[:10], data)

    def test_any_k_survivors_decode(self):
        code = PolynomialRSCode(6, 3, field=GF256)
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, size=(6, 8)).astype(np.uint8)
        coded = code.encode(data)
        # A parity-heavy survivor set, exercising interpolation off-grid.
        available = {i: coded[i] for i in (0, 3, 5, 6, 7, 8)}
        np.testing.assert_array_equal(code.decode(available), data)

    def test_fewer_than_k_survivors_rejected(self):
        code = PolynomialRSCode(4, 2, field=GF16)
        data = np.arange(8, dtype=np.uint8).reshape(4, 2) % 16
        coded = code.encode(data)
        with pytest.raises(DecodingError):
            code.decode({i: coded[i] for i in range(3)})

    def test_cross_check_against_matrix_rs(self):
        """Both codecs invert each other's erasures on the same data."""
        poly_code = PolynomialRSCode(10, 4)
        matrix_code = ReedSolomonCode(10, 4)
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, size=(10, 32)).astype(np.uint8)
        for code in (poly_code, matrix_code):
            coded = code.encode(data)
            survivors = {i: coded[i] for i in range(14) if i not in (0, 5, 11, 13)}
            np.testing.assert_array_equal(code.decode(survivors), data)

    def test_mds_distance_and_parameters(self):
        code = PolynomialRSCode(5, 3, field=GF256)
        params = code.parameters()
        assert params.minimum_distance == 4
        assert params.locality == 5
        assert code.repair_plans(0) == []

    def test_repair_goes_through_heavy_decode(self):
        code = PolynomialRSCode(4, 2, field=GF256)
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=(4, 4)).astype(np.uint8)
        coded = code.encode(data)
        available = {i: coded[i] for i in range(6) if i != 4}
        rebuilt = code.repair(4, available)
        np.testing.assert_array_equal(rebuilt, coded[4])

    def test_blocklength_limit_enforced(self):
        with pytest.raises(ValueError):
            PolynomialRSCode(14, 2, field=GF16)  # n=16 > 15

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PolynomialRSCode(0, 4)
        with pytest.raises(ValueError):
            PolynomialRSCode(10, 0)

    def test_out_of_range_repair_index(self):
        code = PolynomialRSCode(4, 2, field=GF16)
        with pytest.raises(ValueError):
            code.repair_plans(6)
