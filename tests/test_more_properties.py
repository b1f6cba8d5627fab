"""Cross-module property-based tests over randomized parameters.

These complement the per-module suites: hypothesis drives code
*parameters* (not just payloads), and each property ties two
independent implementations or layers together — the places where
drift would be silent.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codes import (
    PyramidCode,
    ReedSolomonCode,
    make_lrc,
    overlapping_groups_distance_bound,
    singleton_bound,
)
from repro.codes.construction import xor_alignment_holds
from repro.galois import GF16, GF256, gf_matmul
from repro.spec.codec import PolynomialRSCode, _evaluate, _lagrange_interpolate

# Small parameter spaces keep exhaustive distance math fast.
small_k = st.integers(min_value=2, max_value=6)
small_parity = st.integers(min_value=2, max_value=4)


class TestRSFamilyProperties:
    @given(small_k, small_parity)
    @settings(max_examples=15, deadline=None)
    def test_rs_is_always_mds(self, k, parity):
        code = ReedSolomonCode(k, parity, field=GF256)
        assert code.minimum_distance() == singleton_bound(code.n, code.k)

    @given(small_k, small_parity, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matrix_and_polynomial_codecs_agree_on_recovery(self, k, parity, seed):
        """Two independent RS implementations, same erasure behaviour."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(k, 8)).astype(np.uint8)
        erased = set(
            rng.choice(k + parity, size=parity, replace=False).tolist()
        )
        for cls in (ReedSolomonCode, PolynomialRSCode):
            code = cls(k, parity, field=GF256)
            coded = code.encode(data)
            survivors = {
                i: coded[i] for i in range(code.n) if i not in erased
            }
            np.testing.assert_array_equal(code.decode(survivors), data)

    @given(small_k, small_parity)
    @settings(max_examples=15, deadline=None)
    def test_rs_generators_always_xor_align(self, k, parity):
        """Appendix D's alignment holds for every RS size, not just (10,4)."""
        code = ReedSolomonCode(k, parity, field=GF256)
        assert xor_alignment_holds(code.field, code.generator)

    @given(small_k, small_parity, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_syndromes_vanish_exactly_on_codewords(self, k, parity, seed):
        code = ReedSolomonCode(k, parity, field=GF256)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(k, 4)).astype(np.uint8)
        coded = code.encode(data)
        assert not np.any(code.syndromes(coded))
        corrupted = coded.copy()
        corrupted[0, 0] ^= 0x01
        assert np.any(code.syndromes(corrupted))


class TestLRCFamilyProperties:
    @given(
        st.integers(min_value=4, max_value=10),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=15, deadline=None)
    def test_make_lrc_always_covers_every_block(self, k, m, r):
        assume(r < k)
        code = make_lrc(k, m, r)
        for block in range(code.n):
            plans = code.repair_plans(block)
            assert plans, f"block {block} of {code.name} has no light plan"
            assert all(p.is_xor_only() for p in plans)

    @given(
        st.integers(min_value=4, max_value=8),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_make_lrc_single_loss_light_repair_correct(self, k, m, r, seed):
        assume(r < k)
        code = make_lrc(k, m, r)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(k, 8)).astype(np.uint8)
        coded = code.encode(data)
        lost = int(rng.integers(code.n))
        survivors = {i: coded[i] for i in range(code.n) if i != lost}
        plan = code.best_repair_plan(lost, survivors.keys())
        assert plan is not None
        np.testing.assert_array_equal(
            code.engine.execute_plan_stripes(plan, survivors)[0], coded[lost]
        )

    @given(
        st.integers(min_value=4, max_value=6),
        st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=8, deadline=None)
    def test_lrc_distance_within_refined_bound(self, k, m):
        r = 2
        code = make_lrc(k, m, r)
        d = code.minimum_distance()
        assert 2 <= d <= overlapping_groups_distance_bound(code.n, k, r)

    @given(
        st.integers(min_value=4, max_value=8),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_lrc_tolerates_any_m_erasures(self, k, m):
        """The RS parities guarantee d >= m + 1 regardless of groups."""
        code = make_lrc(k, m, 2)
        rng = np.random.default_rng(k * 31 + m)
        data = rng.integers(0, 256, size=(k, 4)).astype(np.uint8)
        coded = code.encode(data)
        for _ in range(5):
            erased = set(rng.choice(code.n, size=m, replace=False).tolist())
            survivors = {
                i: coded[i] for i in range(code.n) if i not in erased
            }
            np.testing.assert_array_equal(code.decode(survivors), data)


class TestPyramidProperties:
    @given(
        st.integers(min_value=4, max_value=8),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_group_parities_always_sum_to_split_parity(self, k, m, group):
        assume(group <= k)
        code = PyramidCode(k, m, group, field=GF256)
        total = np.zeros(k, dtype=np.uint8)
        for g in range(code.num_groups):
            np.bitwise_xor(
                total, code.generator[:, code.group_parity_index(g)], out=total
            )
        np.testing.assert_array_equal(total, code.precode.generator[:, k])

    @given(
        st.integers(min_value=4, max_value=6),
        st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=8, deadline=None)
    def test_pyramid_never_beats_singleton(self, k, m):
        code = PyramidCode(k, m, 2, field=GF256)
        assert code.minimum_distance() <= singleton_bound(code.n, code.k)

    @given(
        st.integers(min_value=4, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_pyramid_data_repair_correct(self, k, seed):
        code = PyramidCode(k, 2, 2, field=GF256)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(k, 8)).astype(np.uint8)
        coded = code.encode(data)
        lost = int(rng.integers(k))
        survivors = {i: coded[i] for i in range(code.n) if i != lost}
        np.testing.assert_array_equal(code.repair(lost, survivors), coded[lost])


class TestPolynomialLinalgConsistency:
    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=6),
        st.lists(
            st.integers(min_value=0, max_value=255),
            min_size=2,
            max_size=6,
            unique=True,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_evaluation_equals_vandermonde_product(self, coeffs, points):
        """Polynomial evaluation == Vandermonde matrix-vector product."""
        from repro.galois import gf_vandermonde

        vec = np.array(coeffs, dtype=np.uint8)
        vander = gf_vandermonde(GF256, len(coeffs), points).T  # points x deg
        product = gf_matmul(GF256, vander, vec.reshape(-1, 1)).reshape(-1)
        np.testing.assert_array_equal(product, _evaluate(GF256, vec, points))

    @given(
        st.lists(
            st.integers(min_value=0, max_value=15),
            min_size=2,
            max_size=5,
            unique=True,
        ),
        st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_interpolation_inverts_evaluation(self, points, data):
        coeffs = [
            data.draw(st.integers(min_value=0, max_value=15))
            for _ in range(len(points))
        ]
        p = np.array(coeffs, dtype=np.uint8)
        values = [int(_evaluate(GF16, p, x)) for x in points]
        np.testing.assert_array_equal(_lagrange_interpolate(GF16, points, values), p)


class TestGeoInvariants:
    @given(st.integers(min_value=2, max_value=5))
    @settings(max_examples=5, deadline=None)
    def test_wan_traffic_bounded_by_plan_size(self, num_sites):
        """WAN transfers for any repair never exceed the total reads."""
        from repro.codes import xorbas_lrc
        from repro.geo import (
            DataCenter,
            GeoTopology,
            spread_placement,
            wan_blocks_for_repair,
        )

        topo = GeoTopology(
            datacenters=tuple(DataCenter(f"dc{i}") for i in range(num_sites))
        )
        code = xorbas_lrc()
        placement = spread_placement(code, topo)
        for lost in range(code.n):
            wan = wan_blocks_for_repair(placement, lost)
            plans = code.repair_plans(lost)
            ceiling = min(p.num_reads for p in plans) if plans else code.k
            assert 0 <= wan <= ceiling

    @given(st.integers(min_value=3, max_value=6))
    @settings(max_examples=4, deadline=None)
    def test_more_sites_never_hurt_site_tolerance(self, num_sites):
        from repro.codes import rs_10_4
        from repro.geo import DataCenter, GeoTopology, site_fault_tolerance
        from repro.geo import spread_placement

        def tolerance(sites: int) -> int:
            topo = GeoTopology(
                datacenters=tuple(DataCenter(f"dc{i}") for i in range(sites))
            )
            return site_fault_tolerance(spread_placement(rs_10_4(), topo))

        assert tolerance(num_sites + 1) >= tolerance(num_sites)
