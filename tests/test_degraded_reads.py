"""Tests for the degraded-read availability simulation."""

import math

import pytest

from repro.cluster.degraded import (
    DegradedReadConfig,
    ReadServiceStats,
    compare_degraded_reads,
)
from repro.codes import rs_10_4, three_replication, xorbas_lrc
from repro.spec import DegradedReadSimulation

FAST_CONFIG = DegradedReadConfig(duration=2 * 3600.0)


@pytest.fixture(scope="module")
def comparison():
    codes = [three_replication(), rs_10_4(), xorbas_lrc()]
    return {
        s.scheme: s
        for s in compare_degraded_reads(codes, config=FAST_CONFIG, seed=3)
    }


class TestReadServiceStats:
    def test_empty_stats_are_nan(self):
        """Empty windows must be explicit NaN across the board: a 0.0
        degraded fraction would read as "everything healthy" and a 1.0
        availability as "perfectly available" when nothing was observed
        (the PR 3 empty-window convention)."""
        stats = ReadServiceStats(scheme="empty")
        assert math.isnan(stats.degraded_fraction)
        assert math.isnan(stats.availability)
        assert math.isnan(stats.mean_latency)
        assert math.isnan(stats.mean_degraded_latency)
        assert math.isnan(stats.percentile_latency(95))

    def test_from_arrays_batched_accounting(self):
        import numpy as np

        stats = ReadServiceStats.from_arrays(
            scheme="batched",
            latencies=np.array([5.0, 50.0, 26.0, 53.0]),
            degraded=np.array([False, True, True, True]),
            failed_reads=2,
            read_timeout=45.0,
        )
        assert stats.total_reads == 6
        assert stats.degraded_reads == 3
        assert stats.failed_reads == 2
        assert stats.timed_out_reads == 2
        assert stats.latencies == [5.0, 50.0, 26.0, 53.0]
        assert stats.degraded_latencies == [50.0, 26.0, 53.0]
        assert stats.availability == pytest.approx(1.0 - 4.0 / 6.0)
        with pytest.raises(ValueError):
            ReadServiceStats.from_arrays(
                "bad", np.zeros(3), np.zeros(2, dtype=bool), 0, 45.0
            )

    def test_counters_add_up(self, comparison):
        for stats in comparison.values():
            served = len(stats.latencies)
            assert served + stats.failed_reads == stats.total_reads
            assert stats.degraded_reads == len(stats.degraded_latencies)
            assert stats.timed_out_reads <= served


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DegradedReadConfig(num_nodes=1).validate()
        with pytest.raises(ValueError):
            DegradedReadConfig(num_stripes=0).validate()
        with pytest.raises(ValueError):
            DegradedReadConfig(read_rate=0).validate()
        with pytest.raises(ValueError):
            DegradedReadConfig(duration=-1.0).validate()

    def test_rejects_nonpositive_outage_and_timeout_parameters(self):
        """Regression: outage_rate_per_node=0 used to survive validate()
        and blow up as ZeroDivisionError deep inside the outage draw."""
        with pytest.raises(ValueError):
            DegradedReadConfig(outage_rate_per_node=0.0).validate()
        with pytest.raises(ValueError):
            DegradedReadConfig(outage_rate_per_node=-1.0).validate()
        with pytest.raises(ValueError):
            DegradedReadConfig(outage_duration_mean=0.0).validate()
        with pytest.raises(ValueError):
            DegradedReadConfig(read_timeout=0.0).validate()
        # The constructor path used to be the crash site.
        with pytest.raises(ValueError):
            DegradedReadSimulation(
                xorbas_lrc(), config=DegradedReadConfig(outage_rate_per_node=0.0)
            )

    def test_rejects_bad_scenario_knobs(self):
        with pytest.raises(ValueError):
            DegradedReadConfig(zipf_exponent=-0.1).validate()
        with pytest.raises(ValueError):
            DegradedReadConfig(diurnal_amplitude=1.0).validate()
        with pytest.raises(ValueError):
            DegradedReadConfig(num_racks=-1).validate()
        with pytest.raises(ValueError):
            DegradedReadConfig(num_nodes=4, num_racks=5).validate()
        with pytest.raises(ValueError):
            DegradedReadConfig(num_racks=2, rack_outage_rate=0.0).validate()
        # Defaults stay scenario-free; single knobs flip the flag.
        assert not DegradedReadConfig().uses_scenarios
        assert DegradedReadConfig(zipf_exponent=0.5).uses_scenarios
        assert DegradedReadConfig(num_racks=2).uses_scenarios

    def test_stripe_must_fit_cluster(self):
        small = DegradedReadConfig(num_nodes=10)
        with pytest.raises(ValueError):
            DegradedReadSimulation(rs_10_4(), config=small)


class TestDeterminism:
    def test_same_seed_same_results(self):
        a = DegradedReadSimulation(xorbas_lrc(), config=FAST_CONFIG, seed=11).run()
        b = DegradedReadSimulation(xorbas_lrc(), config=FAST_CONFIG, seed=11).run()
        assert a.total_reads == b.total_reads
        assert a.latencies == b.latencies

    def test_outage_schedule_shared_across_codes(self, comparison):
        """The controlled-comparison property: coded schemes see the
        same outage process (same degraded fractions up to placement)."""
        rs = comparison["RS(10,4)"]
        lrc = comparison["LRC(10,6,5)"]
        assert rs.total_reads == lrc.total_reads
        assert rs.degraded_fraction == pytest.approx(
            lrc.degraded_fraction, abs=0.01
        )

    def test_seed_streams_independent_of_code_width(self):
        """Regression for the documented controlled-comparison contract:
        two simulations with the same seed must present identical outage
        windows and read arrival times even when their codes have
        different n (and thus consume a different number of placement
        draws).  The drawn schedule is now inspectable, so assert it
        element for element rather than through aggregate fractions."""
        import numpy as np

        rs = DegradedReadSimulation(rs_10_4(), config=FAST_CONFIG, seed=3)
        lrc = DegradedReadSimulation(xorbas_lrc(), config=FAST_CONFIG, seed=3)
        assert rs.code.n != lrc.code.n
        rs.run()
        lrc.run()
        assert np.array_equal(rs.schedule.outage_node, lrc.schedule.outage_node)
        assert np.array_equal(
            rs.schedule.outage_start, lrc.schedule.outage_start
        )
        assert np.array_equal(
            rs.schedule.outage_duration, lrc.schedule.outage_duration
        )
        assert np.array_equal(rs.schedule.read_time, lrc.schedule.read_time)
        # Same k -> the interleaved legacy stream also matches stripes
        # and positions, keeping rows attributable to the codes alone.
        assert np.array_equal(rs.schedule.read_stripe, lrc.schedule.read_stripe)
        assert np.array_equal(
            rs.schedule.read_position, lrc.schedule.read_position
        )


class TestAvailabilityStory:
    """Section 4's closing claim, measured."""

    def test_all_schemes_mostly_healthy(self, comparison):
        for stats in comparison.values():
            assert stats.degraded_fraction < 0.05

    def test_replication_serves_degraded_reads_fastest(self, comparison):
        repl = comparison["3-replication"].mean_degraded_latency
        lrc = comparison["LRC(10,6,5)"].mean_degraded_latency
        assert repl < lrc

    def test_lrc_degraded_reads_are_about_twice_as_fast_as_rs(self, comparison):
        rs = comparison["RS(10,4)"].mean_degraded_latency
        lrc = comparison["LRC(10,6,5)"].mean_degraded_latency
        assert 1.5 < rs / lrc < 2.5

    def test_availability_ordering(self, comparison):
        assert (
            comparison["3-replication"].availability
            >= comparison["LRC(10,6,5)"].availability
            > comparison["RS(10,4)"].availability
        )

    def test_healthy_reads_cost_one_block(self, comparison):
        base = FAST_CONFIG.block_size / FAST_CONFIG.node_bandwidth
        for stats in comparison.values():
            healthy = stats.total_reads - stats.degraded_reads - stats.failed_reads
            assert healthy > 0
            assert min(stats.latencies) == pytest.approx(base)


class TestReadPathMechanics:
    def test_degraded_read_uses_light_plan_reads(self):
        """Force a single outage and inspect the resulting latency."""
        cfg = DegradedReadConfig(
            num_nodes=20,
            num_stripes=1,
            read_rate=5.0,
            outage_rate_per_node=1.0 / 600.0,
            outage_duration_mean=1200.0,
            duration=3600.0,
        )
        sim = DegradedReadSimulation(xorbas_lrc(), config=cfg, seed=5)
        stats = sim.run()
        assert stats.degraded_reads > 0
        light = 5 * cfg.block_size / cfg.node_bandwidth
        heavy = 10 * cfg.block_size / cfg.node_bandwidth
        for latency in stats.degraded_latencies:
            assert latency == pytest.approx(light) or latency == pytest.approx(
                heavy
            )

    def test_replication_degraded_reads_cost_one_block(self):
        cfg = DegradedReadConfig(
            num_nodes=10,
            num_stripes=5,
            outage_rate_per_node=1.0 / 600.0,
            duration=3600.0,
        )
        stats = DegradedReadSimulation(three_replication(), config=cfg, seed=6).run()
        base = cfg.block_size / cfg.node_bandwidth
        for latency in stats.degraded_latencies:
            assert latency == pytest.approx(base)

    def test_unrecoverable_reads_count_as_failed(self):
        """Outage storms that take whole stripes down must be recorded
        as failures, not silently dropped."""
        cfg = DegradedReadConfig(
            num_nodes=3,
            num_stripes=2,
            read_rate=5.0,
            outage_rate_per_node=1.0 / 200.0,  # nodes mostly down
            outage_duration_mean=4000.0,
            duration=3600.0,
        )
        stats = DegradedReadSimulation(three_replication(), config=cfg, seed=7).run()
        assert stats.failed_reads > 0
        assert stats.availability < 1.0

    def test_placement_spreads_stripe_blocks(self):
        sim = DegradedReadSimulation(xorbas_lrc(), config=FAST_CONFIG, seed=8)
        for stripe in range(sim.config.num_stripes):
            nodes = sim.placement[stripe]
            assert len(set(nodes.tolist())) == sim.code.n
