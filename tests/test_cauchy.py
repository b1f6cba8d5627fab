"""Tests for Cauchy Reed-Solomon and the bit-matrix XOR encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import certify_distance, is_mds
from repro.codes.cauchy import (
    CauchyRSCode,
    build_parity_bitmatrix,
    element_to_bitmatrix,
    xor_count,
)
from repro.galois import GF16, GF256
from repro.spec import xor_encode


class TestCauchyStructure:
    def test_is_mds_small(self):
        code = CauchyRSCode(4, 3, field=GF16)
        assert is_mds(code)
        certify_distance(code, 4)

    def test_paper_point_is_mds_by_spot_checks(self):
        code = CauchyRSCode(10, 4)
        assert code.minimum_distance() == 5
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=(10, 16)).astype(np.uint8)
        coded = code.encode(data)
        for _ in range(20):
            erased = set(rng.choice(14, size=4, replace=False).tolist())
            survivors = {i: coded[i] for i in range(14) if i not in erased}
            np.testing.assert_array_equal(code.decode(survivors), data)

    def test_systematic(self):
        code = CauchyRSCode(5, 3)
        assert code.is_systematic()

    def test_point_validation(self):
        with pytest.raises(ValueError):
            CauchyRSCode(4, 2, field=GF16, x_points=[0, 1], y_points=[1, 2, 3, 4])
        with pytest.raises(ValueError):
            CauchyRSCode(4, 2, field=GF16, x_points=[0], y_points=[1, 2, 3, 4])
        with pytest.raises(ValueError):
            CauchyRSCode(0, 2)
        with pytest.raises(ValueError):
            CauchyRSCode(200, 100, field=GF16)  # field too small

    def test_custom_points(self):
        code = CauchyRSCode(
            3, 2, field=GF16, x_points=[7, 9], y_points=[1, 2, 3]
        )
        assert is_mds(code)


class TestBitMatrices:
    def test_zero_maps_to_zero_matrix(self):
        assert not element_to_bitmatrix(GF256, 0).any()

    def test_one_maps_to_identity(self):
        np.testing.assert_array_equal(
            element_to_bitmatrix(GF256, 1), np.eye(8, dtype=np.uint8)
        )

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_homomorphism_addition(self, a, b):
        ma = element_to_bitmatrix(GF256, a)
        mb = element_to_bitmatrix(GF256, b)
        mc = element_to_bitmatrix(GF256, a ^ b)
        np.testing.assert_array_equal((ma + mb) & 1, mc)

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_homomorphism_multiplication(self, a, b):
        ma = element_to_bitmatrix(GF256, a)
        mb = element_to_bitmatrix(GF256, b)
        mc = element_to_bitmatrix(GF256, int(GF256.mul(a, b)))
        np.testing.assert_array_equal((ma @ mb) & 1, mc)

    @given(
        st.integers(min_value=1, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_applies_multiplication(self, c, v):
        """bits(c * v) == M(c) @ bits(v)."""
        matrix = element_to_bitmatrix(GF256, c)
        v_bits = np.array([(v >> b) & 1 for b in range(8)], dtype=np.uint8)
        product_bits = (matrix @ v_bits) & 1
        product = sum(int(bit) << i for i, bit in enumerate(product_bits))
        assert product == int(GF256.mul(c, v))


class TestXorEncoder:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_field_encoder(self, seed):
        code = CauchyRSCode(6, 3)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(6, 32)).astype(np.uint8)
        np.testing.assert_array_equal(xor_encode(code, data), code.encode(data))

    def test_matches_on_gf16(self):
        code = CauchyRSCode(4, 2, field=GF16)
        rng = np.random.default_rng(1)
        data = rng.integers(0, 16, size=(4, 64)).astype(np.uint8)
        np.testing.assert_array_equal(xor_encode(code, data), code.encode(data))

    def test_shape_validation(self):
        code = CauchyRSCode(4, 2, field=GF16)
        with pytest.raises(ValueError):
            xor_encode(code, np.zeros((3, 8), dtype=np.uint8))

    def test_bitmatrix_shape(self):
        code = CauchyRSCode(10, 4)
        bits = build_parity_bitmatrix(code)
        assert bits.shape == (4 * 8, 10 * 8)
        assert set(np.unique(bits).tolist()) <= {0, 1}

    def test_xor_count_metric(self):
        code = CauchyRSCode(10, 4)
        bits = build_parity_bitmatrix(code)
        count = xor_count(bits)
        # Dense sanity window: more XORs than rows, fewer than all ones.
        assert 32 < count < int(bits.sum())

    def test_xor_count_identity_block_is_free(self):
        """An identity bit-matrix row has one input: zero XORs."""
        assert xor_count(np.eye(8, dtype=np.uint8)) == 0
        assert xor_count(np.zeros((4, 4), dtype=np.uint8)) == 0

    def test_point_choice_changes_xor_cost(self):
        """The density metric actually discriminates constructions —
        the lever Cauchy-matrix optimisation papers pull."""
        default = CauchyRSCode(4, 2, field=GF16)
        alternative = CauchyRSCode(
            4, 2, field=GF16, x_points=[14, 15], y_points=[7, 9, 11, 13]
        )
        a = xor_count(build_parity_bitmatrix(default))
        b = xor_count(build_parity_bitmatrix(alternative))
        assert a != b
