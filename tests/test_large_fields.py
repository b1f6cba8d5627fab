"""Tests for the uint16 field degrees (9 <= m <= 16).

The byte-oriented suites exercise GF(2^4) and GF(2^8); large archival
stripes (Section 7 at k in the hundreds) and wide Cauchy constructions
need the uint16 degrees, whose table sizes and dtype plumbing are a
separate code path worth pinning.
"""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import ReedSolomonCode, make_lrc
from repro.galois import GF

pytestmark = pytest.mark.slow  # builds uint16 field tables

GF1024 = GF(10)
GF65536 = GF(16)


class TestFieldMechanics:
    def test_dtype_is_uint16(self):
        assert GF1024.dtype == np.dtype(np.uint16)
        assert GF65536.dtype == np.dtype(np.uint16)

    def test_order_and_alpha(self):
        assert GF1024.order == 1024
        assert GF65536.order == 65536
        assert GF1024.exp(0) == 1
        assert GF1024.exp(1) == 2

    @given(st.integers(min_value=1, max_value=1023))
    @settings(max_examples=50, deadline=None)
    def test_inverse_roundtrip(self, a):
        assert int(GF1024.mul(a, GF1024.inv(a))) == 1

    @given(
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=65535),
    )
    @settings(max_examples=40, deadline=None)
    def test_distributivity_in_gf65536(self, a, b, c):
        left = GF65536.mul(a, GF65536.add(b, c))
        right = GF65536.add(GF65536.mul(a, b), GF65536.mul(a, c))
        assert int(left) == int(right)

    def test_exp_log_consistency(self):
        for i in (0, 1, 500, 1022):
            assert GF1024.log(GF1024.exp(i)) == i

    def test_vectorised_ops_keep_dtype(self):
        rng = np.random.default_rng(0)
        a = rng.integers(1, 1024, size=100).astype(np.uint16)
        b = rng.integers(1, 1024, size=100).astype(np.uint16)
        product = GF1024.mul(a, b)
        assert product.dtype == np.uint16
        np.testing.assert_array_equal(GF1024.div(product, b), a)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            GF(17)
        with pytest.raises(ValueError):
            GF(0)


class TestWideCodes:
    def test_rs_beyond_gf256_blocklength(self):
        """n = 300 exceeds GF(2^8)'s 255-symbol limit; GF(2^10) hosts it."""
        code = ReedSolomonCode(296, 4, field=GF1024)
        assert code.n == 300
        rng = np.random.default_rng(1)
        data = rng.integers(0, 1024, size=(296, 2)).astype(np.uint16)
        coded = code.encode(data)
        erased = {0, 100, 200, 299}
        survivors = {i: coded[i] for i in range(300) if i not in erased}
        np.testing.assert_array_equal(code.decode(survivors), data)
        assert code.is_decodable(survivors) and not code.is_decodable(range(295))

    def test_blocklength_limit_enforced_per_field(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(1022, 4, field=GF1024)  # n = 1026 > 1023

    def test_giant_archival_lrc(self):
        """A k = 250 archival stripe: every block keeps locality 5."""
        code = make_lrc(250, 4, 5, field=GF1024)
        assert code.k == 250
        assert code.storage_overhead < 0.25
        rng = np.random.default_rng(2)
        lost = int(rng.integers(code.n))
        plans = code.repair_plans(lost)
        assert plans and min(p.num_reads for p in plans) <= 5

    def test_masks_past_63_blocks_stay_python_ints(self):
        """A 77-block stripe's survival masks do not fit int64: decodability
        runs on Python ints, the rank check included."""
        code = make_lrc(60, 4, 5, field=GF1024)
        assert code.n == 77
        full = (1 << code.n) - 1
        decodable = code.decodable([full, full ^ (1 << 76), full ^ ((1 << 17) - 1)])
        assert list(decodable) == [True, True, False]
        assert code.is_decodable(set(range(code.n)) - {0, 59, 76})

    def test_giant_lrc_light_repair_executes(self):
        code = make_lrc(60, 4, 5, field=GF1024)
        rng = np.random.default_rng(3)
        data = rng.integers(0, 1024, size=(60, 4)).astype(np.uint16)
        coded = code.encode(data)
        for lost in (0, 59, 60, 63, code.n - 1):
            survivors = {i: coded[i] for i in range(code.n) if i != lost}
            plan = code.best_repair_plan(lost, survivors.keys())
            assert plan is not None
            np.testing.assert_array_equal(
                code.engine.execute_plan_stripes(plan, survivors)[0], coded[lost]
            )
