"""Tests for blocks, stripes, NameNode placement and liveness."""

import math

import numpy as np
import pytest

from repro.cluster import NameNode, PlacementError, Stripe
from repro.cluster.metrics import FailureEventRecord, MetricsCollector, TimeSeries
from repro.codes import xorbas_lrc


def make_stripe(code=None, data_blocks=10, payload=32):
    code = code or xorbas_lrc()
    return Stripe(
        file_name="f",
        index=0,
        code=code,
        data_blocks=data_blocks,
        block_size=64e6,
        payload_bytes=payload,
        rng=np.random.default_rng(0),
    )


class TestStripe:
    def test_full_stripe_positions(self):
        stripe = make_stripe()
        assert stripe.stored_positions() == list(range(10))  # pre-RAID
        stripe.parities_stored = True
        assert stripe.stored_positions() == list(range(16))

    def test_zero_padded_stripe(self):
        stripe = make_stripe(data_blocks=3)
        stripe.parities_stored = True
        positions = stripe.stored_positions()
        assert positions == [0, 1, 2] + list(range(10, 16))
        assert stripe.is_virtual(5)
        assert not stripe.is_virtual(0)
        assert not stripe.is_virtual(14)

    def test_virtual_block_id_rejected(self):
        stripe = make_stripe(data_blocks=3)
        with pytest.raises(ValueError):
            stripe.block_id(7)

    def test_read_set_excludes_virtual(self):
        stripe = make_stripe(data_blocks=3)
        plan = stripe.code.best_repair_plan(0, set(range(1, 16)))
        reads = stripe.read_set(plan.sources)
        assert all(not stripe.is_virtual(p) for p in reads)
        assert len(reads) < plan.num_reads  # padding made repair cheaper

    def test_payload_is_valid_codeword(self):
        stripe = make_stripe()
        code = stripe.code
        data = code.decode({i: stripe.payload[i] for i in range(10)})
        assert np.array_equal(code.encode(data), stripe.payload)

    def test_padded_payload_zero_rows(self):
        stripe = make_stripe(data_blocks=3)
        assert not np.any(stripe.payload[3:10])

    def test_verify_rebuilt(self):
        stripe = make_stripe()
        assert stripe.verify_rebuilt(4, stripe.payload[4].copy())
        corrupted = stripe.payload[4].copy()
        corrupted[0] ^= 1
        assert not stripe.verify_rebuilt(4, corrupted)

    def test_invalid_data_blocks(self):
        with pytest.raises(ValueError):
            make_stripe(data_blocks=0)
        with pytest.raises(ValueError):
            make_stripe(data_blocks=11)


class TestNameNode:
    def make(self, nodes=20):
        return NameNode([f"n{i}" for i in range(nodes)], np.random.default_rng(0))

    def test_place_stripe_distinct_nodes(self):
        nn = self.make()
        stripe = make_stripe()
        stripe.parities_stored = True
        nn.place_stripe(stripe)
        locations = [nn.locate(stripe, p) for p in range(16)]
        assert None not in locations
        assert len(set(locations)) == 16

    def test_collocation_fallback_when_cluster_small(self):
        nn = self.make(nodes=5)
        stripe = make_stripe()
        stripe.parities_stored = True
        nn.place_stripe(stripe)
        assert all(nn.locate(stripe, p) for p in range(16))

    def test_kill_then_detect(self):
        nn = self.make()
        stripe = make_stripe()
        stripe.parities_stored = True
        nn.place_stripe(stripe)
        victim = nn.locate(stripe, 0)
        held = nn.blocks_on_node(victim)
        assert stripe.block_id(0) in held
        assert nn.kill_node(victim) == len(held)
        # Not yet detected: unavailable but not missing.
        assert nn.locate(stripe, 0) is None
        assert nn.placement_of(stripe, 0) == victim
        assert not nn.is_missing(stripe, 0)
        assert nn.detect_failures(victim) == len(held)
        assert nn.is_missing(stripe, 0)
        assert nn.missing_block_ids() == held
        assert nn.missing_count == len(held)

    def test_double_kill_is_noop(self):
        nn = self.make()
        stripe = make_stripe()
        nn.place_stripe(stripe)
        victim = nn.locate(stripe, 0)
        first = nn.kill_node(victim)
        assert nn.kill_node(victim) == 0
        assert first

    def test_detect_without_kill_is_noop(self):
        nn = self.make()
        assert nn.detect_failures("n0") == 0

    def test_cannot_place_on_dead_node(self):
        nn = self.make()
        stripe = make_stripe()
        nn.register_stripe(stripe)
        nn.kill_node("n0")
        with pytest.raises(PlacementError):
            nn.add_block(stripe, 0, "n0")

    def test_unregistered_stripe_is_a_key_error(self):
        nn = self.make()
        with pytest.raises(KeyError, match="register it first"):
            nn.locate(make_stripe(), 0)

    def test_missing_positions(self):
        nn = self.make()
        stripe = make_stripe()
        stripe.parities_stored = True
        nn.place_stripe(stripe)
        victim = nn.locate(stripe, 3)
        nn.kill_node(victim)
        nn.detect_failures(victim)
        assert nn.missing_positions(stripe) == [3]
        available = nn.available_positions(stripe)
        assert 3 not in available
        assert len(available) == 15

    def test_fsck(self):
        nn = self.make()
        stripe = make_stripe()
        stripe.parities_stored = True
        nn.place_stripe(stripe)
        report = nn.fsck()
        assert report["stored_blocks"] == 16
        assert report["missing_blocks"] == 0
        assert report["alive_nodes"] == 20


class TestTimeSeries:
    def test_point_bucketing(self):
        ts = TimeSeries(10.0)
        ts.add_point(5.0, 1.0)
        ts.add_point(15.0, 2.0)
        assert ts.values() == [1.0, 2.0]

    def test_interval_spreads_proportionally(self):
        ts = TimeSeries(10.0)
        ts.add_interval(5.0, 25.0, 200.0)  # spans buckets 0,1,2
        values = ts.values()
        assert values == [pytest.approx(50.0), pytest.approx(100.0), pytest.approx(50.0)]
        assert ts.total() == pytest.approx(200.0)

    def test_instant_interval(self):
        ts = TimeSeries(10.0)
        ts.add_interval(5.0, 5.0, 42.0)
        assert ts.total() == pytest.approx(42.0)

    def test_reversed_interval_rejected(self):
        ts = TimeSeries(10.0)
        with pytest.raises(ValueError):
            ts.add_interval(10.0, 5.0, 1.0)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(0.0)


class TestMetricsEventScoping:
    def test_attribution_only_while_active(self):
        metrics = MetricsCollector(bucket_width=10.0)
        record = metrics.begin_event(FailureEventRecord("e", 1, 0.0))
        metrics.record_block_read("n0", 100.0, 0.0, 1.0)
        metrics.end_event()
        metrics.record_block_read("n0", 50.0, 1.0, 2.0)
        assert record.hdfs_bytes_read == pytest.approx(100.0)
        assert metrics.hdfs_bytes_read == pytest.approx(150.0)

    def test_repair_window_tracking(self):
        metrics = MetricsCollector()
        record = metrics.begin_event(FailureEventRecord("e", 1, 0.0))
        metrics.record_repair_job(10.0, 50.0)
        metrics.record_repair_job(5.0, 40.0)
        assert record.repair_start == 5.0
        assert record.repair_end == 50.0
        assert record.repair_duration == 45.0

    def test_blocks_read_per_lost(self):
        record = FailureEventRecord("e", 1, 0.0, blocks_lost=4)
        record.hdfs_bytes_read = 8.0
        assert record.blocks_read_per_lost == pytest.approx(2.0)
        # 0/0 is explicit NaN, not a misleading "zero bytes per block".
        empty = FailureEventRecord("e", 1, 0.0)
        assert math.isnan(empty.blocks_read_per_lost)

    def test_cpu_utilization_series(self):
        metrics = MetricsCollector(bucket_width=10.0)
        metrics.record_cpu_busy(0.0, 10.0, load=5.0)
        series = metrics.cpu_utilization_series(num_nodes=5, slots_per_node=2)
        assert series[0][1] == pytest.approx(0.5)
