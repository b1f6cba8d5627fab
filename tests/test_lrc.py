"""Tests for the LRC constructions — the paper's primary contribution.

Certifies Theorem 5 exhaustively: the (10,6,5) Xorbas code has locality 5
for all 16 blocks and optimal distance d = 5.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.codes import (
    DecodingError,
    LocalGroup,
    LocallyRepairableCode,
    certify_locality,
    locality_distance_bound,
    make_lrc,
    overlapping_groups_distance_bound,
    repair_cost_summary,
    xorbas_lrc,
)
from repro.galois import GF256

# Block layout of the Xorbas code (see lrc.py docstring).
DATA = tuple(range(10))
RS_PARITY = (10, 11, 12, 13)
S1, S2 = 14, 15


@pytest.fixture(scope="module")
def lrc():
    return xorbas_lrc()


def random_data(k=10, length=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(k, length), dtype=np.uint8)


class TestConstruction:
    def test_shape(self, lrc):
        assert (lrc.k, lrc.n) == (10, 16)
        assert lrc.storage_overhead == pytest.approx(0.6)

    def test_systematic(self, lrc):
        assert lrc.is_systematic()

    def test_s1_is_xor_of_first_five_data_blocks(self, lrc):
        data = random_data(seed=1)
        coded = lrc.encode(data)
        expected = np.bitwise_xor.reduce(data[:5], axis=0)
        assert np.array_equal(coded[S1], expected)

    def test_s2_is_xor_of_last_five_data_blocks(self, lrc):
        data = random_data(seed=2)
        coded = lrc.encode(data)
        expected = np.bitwise_xor.reduce(data[5:], axis=0)
        assert np.array_equal(coded[S2], expected)

    def test_implied_parity_alignment(self, lrc):
        """S1 + S2 + S3 = 0 where S3 = P1+P2+P3+P4 (Section 2.1)."""
        data = random_data(seed=3)
        coded = lrc.encode(data)
        s3 = np.bitwise_xor.reduce(coded[list(RS_PARITY)], axis=0)
        assert np.array_equal(coded[S1] ^ coded[S2], s3)

    def test_groups(self, lrc):
        group_sets = [frozenset(g.members) for g in lrc.groups]
        assert frozenset({0, 1, 2, 3, 4, S1}) in group_sets
        assert frozenset({5, 6, 7, 8, 9, S2}) in group_sets
        assert frozenset({10, 11, 12, 13, S1, S2}) in group_sets
        implied = [g for g in lrc.groups if g.implied]
        assert len(implied) == 1
        assert frozenset(implied[0].members) == frozenset({10, 11, 12, 13, S1, S2})

    def test_invalid_group_rejected(self, lrc):
        with pytest.raises(ValueError):
            LocallyRepairableCode(
                lrc.field,
                lrc.generator,
                [LocalGroup(members=(0, 1, 2))],  # does not XOR to zero
            )

    def test_duplicate_member_rejected(self, lrc):
        with pytest.raises(ValueError):
            LocallyRepairableCode(
                lrc.field, lrc.generator, [LocalGroup(members=(0, 0, 1))]
            )


@pytest.mark.slow
class TestTheorem5:
    """The paper's Theorem 5: locality 5 for all blocks, optimal d = 5."""

    def test_all_blocks_have_advertised_locality_5(self, lrc):
        for block in range(16):
            plans = lrc.repair_plans(block)
            assert plans, f"block {block} has no light plan"
            assert min(p.num_reads for p in plans) == 5

    def test_locality_certified_exhaustively(self, lrc, xorbas_certification):
        assert np.array_equal(xorbas_certification.code.generator, lrc.generator)
        assert xorbas_certification.locality

    @pytest.mark.parametrize("claim, message", [(4, "locality > 4"), (6, "loose")])
    def test_certify_locality_rejects_a_wrong_claim(self, lrc, claim, message):
        """Every block needs 5 reads: 4 is too few, and 6 is loose."""
        with pytest.raises(AssertionError, match=message):
            certify_locality(lrc, claim)

    def test_distance_is_exactly_5(self, lrc, xorbas_certification):
        assert xorbas_certification.distance
        assert lrc.minimum_distance() == 5

    def test_distance_meets_refined_bound(self, lrc):
        """Theorem 2's generic bound gives d <= 6 for (16, 10, r=5), but
        6 does not divide 16, so groups must overlap and Theorem 5's
        refinement gives d <= 5 — which the construction achieves."""
        assert locality_distance_bound(16, 10, 5) == 6
        assert overlapping_groups_distance_bound(16, 10, 5) == 5
        assert lrc.minimum_distance() == overlapping_groups_distance_bound(16, 10, 5)

    def test_all_plans_are_xor_only(self, lrc):
        """c_i = 1 suffices (Section 2.1's explicit construction)."""
        for block in range(16):
            for plan in lrc.repair_plans(block):
                assert plan.is_xor_only()


class TestRepair:
    def test_light_repair_every_single_loss(self, lrc):
        data = random_data(seed=4)
        coded = lrc.encode(data)
        for lost in range(16):
            available = {i: coded[i] for i in range(16) if i != lost}
            plan = lrc.best_repair_plan(lost, available.keys())
            assert plan is not None and plan.num_reads == 5
            assert np.array_equal(lrc.repair(lost, available), coded[lost])

    def test_parity_repair_uses_implied_parity(self, lrc):
        """Repairing P2 reads P1, P3, P4, S1, S2 — equation (2)."""
        plan = lrc.best_repair_plan(11, set(range(16)) - {11})
        assert set(plan.sources) == {10, 12, 13, S1, S2}

    def test_double_loss_different_groups_both_light(self, lrc):
        data = random_data(seed=5)
        coded = lrc.encode(data)
        available = {i: coded[i] for i in range(16) if i not in (0, 5)}
        for lost in (0, 5):
            plan = lrc.best_repair_plan(lost, available.keys())
            assert plan is not None and plan.num_reads == 5
            assert np.array_equal(lrc.repair(lost, available), coded[lost])

    def test_double_loss_same_group_falls_back_to_heavy(self, lrc):
        data = random_data(seed=6)
        coded = lrc.encode(data)
        available = {i: coded[i] for i in range(16) if i not in (0, 1)}
        assert lrc.best_repair_plan(0, available.keys()) is None
        assert np.array_equal(lrc.repair(0, available), coded[0])

    def test_every_quadruple_loss_recoverable(self, lrc):
        """d = 5 means any 4 erasures keep the file decodable."""
        data = random_data(seed=7, length=4)
        coded = lrc.encode(data)
        rng = np.random.default_rng(8)
        for _ in range(150):
            lost = set(rng.choice(16, size=4, replace=False).tolist())
            available = {i: coded[i] for i in range(16) if i not in lost}
            assert np.array_equal(lrc.decode(available), data)

    def test_fatal_pattern_exists(self, lrc):
        """Some 5-erasure patterns destroy the file (d = 5, not more)."""
        data = random_data(seed=9, length=4)
        coded = lrc.encode(data)
        found_fatal = False
        for erased in combinations(range(16), 5):
            if not lrc.is_decodable(set(range(16)) - set(erased)):
                found_fatal = True
                available = {i: coded[i] for i in range(16) if i not in erased}
                with pytest.raises(DecodingError):
                    lrc.decode(available)
                break
        assert found_fatal


class TestRepairCostCombinatorics:
    def test_single_loss_cost(self, lrc):
        summary = repair_cost_summary(lrc, 1)
        assert summary.expected_reads == 5.0
        assert summary.light_fraction == 1.0

    def test_double_loss_light_fraction(self, lrc):
        """26 of the 120 pairs leave the first block heavy-only (pairs
        within a data group or within the parity group)."""
        summary = repair_cost_summary(lrc, 2, heavy_reads=10, target="cheapest")
        assert summary.light_fraction == pytest.approx(1 - 26 / 120)
        assert summary.expected_reads == pytest.approx(5 + 5 * 26 / 120)

    def test_costs_bounded_by_heavy(self, lrc):
        for lost in range(1, 5):
            summary = repair_cost_summary(lrc, lost, heavy_reads=10)
            assert 5.0 <= summary.expected_reads <= 10.0


class TestGeneralLrcFamily:
    def test_xorbas_is_make_lrc_10_4_5(self):
        assert np.array_equal(xorbas_lrc().generator, make_lrc(10, 4, 5).generator)

    @pytest.mark.parametrize("k,m,r", [(4, 2, 2), (6, 3, 3), (8, 4, 4)])
    def test_family_roundtrip(self, k, m, r):
        code = make_lrc(k, m, r, field=GF256)
        data = random_data(k=k, length=16, seed=k)
        coded = code.encode(data)
        assert np.array_equal(coded[:k], data)
        for lost in range(code.n):
            available = {i: coded[i] for i in range(code.n) if i != lost}
            assert np.array_equal(code.repair(lost, available), coded[lost])

    @pytest.mark.parametrize("k,m,r", [(4, 2, 2), (6, 3, 3)])
    def test_family_locality(self, k, m, r):
        code = make_lrc(k, m, r, field=GF256)
        assert code.locality() <= r

    def test_no_implied_parity_when_parity_group_too_large(self):
        """With m > r the global parities cannot share one implied group."""
        code = make_lrc(6, 4, 3, field=GF256)
        implied = [g for g in code.groups if g.implied]
        assert not implied

    def test_uneven_last_group(self):
        code = make_lrc(5, 2, 2, field=GF256)
        data = random_data(k=5, length=8, seed=11)
        coded = code.encode(data)
        for lost in range(code.n):
            available = {i: coded[i] for i in range(code.n) if i != lost}
            assert np.array_equal(code.repair(lost, available), coded[lost])
