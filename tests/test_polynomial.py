"""Tests for the evaluation-style RS codec and its Lagrange helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import DecodingError, ReedSolomonCode
from repro.galois import GF16, GF256
from repro.spec.codec import PolynomialRSCode, _evaluate, _lagrange_interpolate


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
        p = _lagrange_interpolate(GF16, points, values)
        assert len(p) == len(points)  # degree < len(points)
        for x, y in zip(points, values):
            assert int(_evaluate(GF16, p, x)) == y

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            _lagrange_interpolate(GF16, [1, 1], [2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _lagrange_interpolate(GF16, [1, 2], [3])

    def test_recovers_known_polynomial(self):
        p = np.array([7, 11, 13], dtype=np.uint8)
        points = [1, 2, 3, 4]
        values = [int(_evaluate(GF256, p, x)) for x in points]
        q = _lagrange_interpolate(GF256, points, values)
        assert list(q) == [7, 11, 13, 0]


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
