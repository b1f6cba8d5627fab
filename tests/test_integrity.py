"""Tests for the block-integrity layer: checksums, corruption, scrubbing."""

import numpy as np
import pytest

from repro.cluster.blocks import Stripe
from repro.cluster.integrity import (
    ChecksumRegistry,
    CorruptionInjector,
    Scrubber,
    pgz_cross_check,
)
from repro.codes import rs_10_4, xorbas_lrc

PAYLOAD = 64


def make_stripe(code, data_blocks=None, index=0, name="f"):
    stripe = Stripe(
        file_name=name,
        index=index,
        code=code,
        data_blocks=data_blocks if data_blocks is not None else code.k,
        block_size=64e6,
        payload_bytes=PAYLOAD,
        rng=np.random.default_rng(index + 1),
    )
    stripe.parities_stored = True
    return stripe


@pytest.fixture()
def lrc_stripe():
    return make_stripe(xorbas_lrc())


@pytest.fixture()
def registry(lrc_stripe):
    reg = ChecksumRegistry()
    reg.record_stripe(lrc_stripe)
    return reg


class TestChecksums:
    def test_records_every_stored_position(self, lrc_stripe, registry):
        assert len(registry) == 16

    def test_clean_stripe_verifies(self, lrc_stripe, registry):
        assert registry.scan_stripe(lrc_stripe) == []
        for position in lrc_stripe.stored_positions():
            assert registry.verify(lrc_stripe, position)

    def test_detects_flipped_bytes(self, lrc_stripe, registry):
        lrc_stripe.payload[3, 10] ^= 0xFF
        assert registry.scan_stripe(lrc_stripe) == [3]
        assert not registry.verify(lrc_stripe, 3)

    def test_unknown_block_rejected(self, lrc_stripe):
        empty = ChecksumRegistry()
        with pytest.raises(KeyError):
            empty.verify(lrc_stripe, 0)

    def test_payloadless_stripe_rejected(self):
        bare = Stripe("g", 0, xorbas_lrc(), 10, 64e6, payload_bytes=0)
        with pytest.raises(ValueError):
            ChecksumRegistry().record_stripe(bare)

    def test_partial_stripe_checksums_only_stored(self):
        stripe = make_stripe(xorbas_lrc(), data_blocks=3)
        reg = ChecksumRegistry()
        # 3 data + 4 RS parities + 2 local parities (positions 3..9 virtual).
        assert reg.record_stripe(stripe) == 9


class TestCorruptionInjector:
    def test_corruption_changes_every_byte(self, lrc_stripe):
        injector = CorruptionInjector(seed=1)
        before = lrc_stripe.payload[5].copy()
        block = injector.corrupt_block(lrc_stripe, 5)
        assert block.position == 5
        assert np.all(lrc_stripe.payload[5] != before) or np.any(
            lrc_stripe.payload[5] != before
        )
        assert injector.injected == [block]

    def test_virtual_position_rejected(self):
        stripe = make_stripe(xorbas_lrc(), data_blocks=4)
        with pytest.raises(ValueError):
            CorruptionInjector().corrupt_block(stripe, 7)  # zero padding


class TestScrubber:
    def test_heals_single_corruption_with_light_plan(self, lrc_stripe):
        scrubber = Scrubber()
        assert scrubber.record_stripe(lrc_stripe) == 16
        pristine = lrc_stripe.payload.copy()
        CorruptionInjector(seed=2).corrupt_block(lrc_stripe, 2)
        report = scrubber.scrub([lrc_stripe])
        assert [b.position for b in report.corrupt_blocks] == [2]
        assert [b.position for b in report.healed_blocks] == [2]
        assert report.blocks_read_for_heal == 5  # the LRC light plan
        np.testing.assert_array_equal(lrc_stripe.payload, pristine)
        assert scrubber.registry.scan_stripe(lrc_stripe) == []

    def test_rs_heal_reads_more(self):
        stripe = make_stripe(rs_10_4())
        scrubber = Scrubber()
        scrubber.record_stripe(stripe)
        pristine = stripe.payload.copy()
        CorruptionInjector(seed=3).corrupt_block(stripe, 2)
        report = scrubber.scrub([stripe])
        assert report.healed_blocks
        assert report.blocks_read_for_heal == 13  # all surviving blocks
        np.testing.assert_array_equal(stripe.payload, pristine)

    def test_heals_double_corruption_across_groups(self, lrc_stripe):
        scrubber = Scrubber()
        scrubber.record_stripe(lrc_stripe)
        pristine = lrc_stripe.payload.copy()
        injector = CorruptionInjector(seed=4)
        injector.corrupt_block(lrc_stripe, 0)
        injector.corrupt_block(lrc_stripe, 6)  # different repair group
        report = scrubber.scrub([lrc_stripe])
        assert len(report.healed_blocks) == 2
        # Two light plans: 5 reads each.
        assert report.blocks_read_for_heal == 10
        np.testing.assert_array_equal(lrc_stripe.payload, pristine)

    def test_unhealable_stripe_reported_not_crashed(self):
        stripe = make_stripe(rs_10_4(), index=5)
        scrubber = Scrubber()
        scrubber.record_stripe(stripe)
        injector = CorruptionInjector(seed=5)
        for position in (0, 1, 2, 3, 4):  # five corruptions > d - 1
            injector.corrupt_block(stripe, position)
        report = scrubber.scrub([stripe])
        assert report.unhealable_stripes == [("f", 5)]
        assert not report.clean

    def test_partial_stripe_heal_uses_virtual_zeros(self):
        """Zero-padded stripes heal without reading the padding."""
        stripe = make_stripe(xorbas_lrc(), data_blocks=3, index=7)
        scrubber = Scrubber()
        scrubber.record_stripe(stripe)
        pristine = stripe.payload.copy()
        CorruptionInjector(seed=6).corrupt_block(stripe, 1)
        report = scrubber.scrub([stripe])
        assert [b.position for b in report.healed_blocks] == [1]
        # Light plan sources are {0, 2, 3, 4, 14}; 3 and 4 are virtual.
        assert report.blocks_read_for_heal == 3
        np.testing.assert_array_equal(stripe.payload, pristine)

    def test_scrub_many_stripes(self):
        stripes = [make_stripe(xorbas_lrc(), index=i) for i in range(5)]
        scrubber = Scrubber()
        for stripe in stripes:
            scrubber.record_stripe(stripe)
        CorruptionInjector(seed=7).corrupt_block(stripes[3], 11)
        report = scrubber.scrub(stripes)
        assert report.stripes_scanned == 5
        assert len(report.healed_blocks) == 1
        assert report.healed_blocks[0].file_name == "f"


class TestPgzCrossCheck:
    def test_agrees_with_checksums_on_rs(self):
        stripe = make_stripe(rs_10_4())
        registry = ChecksumRegistry()
        registry.record_stripe(stripe)
        CorruptionInjector(seed=8).corrupt_block(stripe, 9)
        assert pgz_cross_check(stripe) == registry.scan_stripe(stripe) == [9]

    def test_lrc_stripe_checks_rs_prefix(self, lrc_stripe, registry):
        CorruptionInjector(seed=9).corrupt_block(lrc_stripe, 12)
        assert pgz_cross_check(lrc_stripe) == [12]

    def test_clean_stripe_is_silent(self, lrc_stripe):
        assert pgz_cross_check(lrc_stripe) == []

    def test_non_rs_code_rejected(self):
        from repro.codes import three_replication

        stripe = Stripe("r", 0, three_replication(), 1, 64e6, payload_bytes=8)
        with pytest.raises(TypeError):
            pgz_cross_check(stripe)
