"""Tests for the Vandermonde Reed-Solomon construction (Appendix D)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import (
    DecodingError,
    ReedSolomonCode,
    certify_distance,
    is_mds,
    rs_10_4,
    singleton_bound,
)
from repro.galois import GF16, GF256, gf_matmul


@pytest.fixture(scope="module")
def rs():
    return rs_10_4()


def random_data(k, length=32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(k, length), dtype=np.uint8)


class TestConstruction:
    def test_parameters(self, rs):
        params = rs.parameters()
        assert (params.k, params.n) == (10, 14)
        assert params.minimum_distance == 5
        assert params.locality == 10  # Lemma 1: MDS locality is k
        assert params.storage_overhead == pytest.approx(0.4)
        assert params.rate == pytest.approx(10 / 14)

    def test_systematic(self, rs):
        assert rs.is_systematic()

    def test_generator_annihilated_by_parity_check(self, rs):
        product = gf_matmul(rs.field, rs.generator, rs.parity_check.T)
        assert not np.any(product)

    def test_columns_sum_to_zero(self, rs):
        """The alignment property the LRC's implied parity relies on."""
        total = np.zeros(rs.k, dtype=rs.field.dtype)
        for j in range(rs.n):
            total ^= rs.generator[:, j]
        assert not np.any(total)

    def test_blocklength_limit(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(14, 2, field=GF16)  # n=16 > 15 elements available

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(0, 4)
        with pytest.raises(ValueError):
            ReedSolomonCode(10, 0)


class TestEncodeDecode:
    def test_encode_shape_and_systematic_prefix(self, rs):
        data = random_data(10)
        coded = rs.encode(data)
        assert coded.shape == (14, 32)
        assert np.array_equal(coded[:10], data)

    @pytest.mark.slow  # all C(14, 4) erasure patterns
    def test_decode_from_any_10_of_14(self, rs):
        data = random_data(10, seed=1)
        coded = rs.encode(data)
        for survivors in combinations(range(14), 10):
            available = {i: coded[i] for i in survivors}
            assert np.array_equal(rs.decode(available), data)

    def test_decode_insufficient_blocks(self, rs):
        data = random_data(10, seed=2)
        coded = rs.encode(data)
        available = {i: coded[i] for i in range(9)}
        with pytest.raises(DecodingError):
            rs.decode(available)

    def test_repair_falls_back_to_heavy_decode(self, rs):
        data = random_data(10, seed=3)
        coded = rs.encode(data)
        available = {i: coded[i] for i in range(14) if i != 12}
        rebuilt = rs.repair(12, available)
        assert np.array_equal(rebuilt, coded[12])

    def test_no_light_plans(self, rs):
        assert rs.repair_plans(0) == []
        assert rs.best_repair_plan(0, range(1, 14)) is None

    def test_encode_wrong_block_count(self, rs):
        with pytest.raises(ValueError):
            rs.encode(random_data(9))

    def test_syndromes_zero_for_codewords(self, rs):
        coded = rs.encode(random_data(10, seed=4))
        assert not np.any(rs.syndromes(coded))

    def test_syndromes_nonzero_for_corruption(self, rs):
        coded = rs.encode(random_data(10, seed=5))
        coded[3] ^= 1
        assert np.any(rs.syndromes(coded))

    def test_data_block_corruption_invisible_to_systematic_reads(self, rs):
        """A data block overwritten with noise still 'reads fine' without
        checksums: only the parity equations expose it."""
        coded = rs.encode(random_data(10, length=64, seed=7))
        rng = np.random.default_rng(7)
        received = coded.copy()
        noise = rng.integers(1, 256, size=coded.shape[1], dtype=np.uint8)
        received[3] ^= noise  # xor with non-zero => every byte moves
        # The corrupted block is a plausible byte array...
        assert received[3].shape == coded[3].shape
        assert np.all(received[3] != coded[3])
        # ...but the syndromes are loud.
        assert np.any(rs.syndromes(received))

    def test_syndromes_linear_in_error(self, rs):
        coded = rs.encode(random_data(10, seed=6))
        error = np.zeros_like(coded)
        error[5, :] = 0x11
        np.testing.assert_array_equal(
            rs.syndromes(coded ^ error), rs.syndromes(error)
        )


class TestMdsProperty:
    def test_small_rs_is_exactly_mds(self):
        """Exhaustive distance certification for a small RS code."""
        code = ReedSolomonCode(4, 3, field=GF16)
        assert certify_distance(code, singleton_bound(code.n, code.k))
        assert is_mds(code)

    def test_rs_10_4_distance_spot_check(self, rs):
        """Every 4-erasure pattern is decodable; some 5-erasure is fatal
        (full enumeration is covered for the small code above)."""
        assert rs.minimum_distance() == 5
        all_blocks = set(range(14))
        rng = np.random.default_rng(0)
        for _ in range(200):
            erased = set(rng.choice(14, size=4, replace=False).tolist())
            assert rs.is_decodable(all_blocks - erased)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_mds_for_random_parameters(self, k, parity):
        code = ReedSolomonCode(k, parity, field=GF256)
        data = random_data(k, length=8, seed=k * 7 + parity)
        coded = code.encode(data)
        # erase `parity` blocks (the worst survivable case), decode, compare
        available = {i: coded[i] for i in range(parity, code.n)}
        assert np.array_equal(code.decode(available), data)
