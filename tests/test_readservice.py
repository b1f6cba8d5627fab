"""Tests for the vectorized read-service engine.

The differential suite is the heart: the event-driven
``DegradedReadSimulation`` is the executable specification, and for the
same seed (or any shared schedule) the batched ``ReadServiceEngine``
must produce element-identical ``ReadServiceStats`` — exact counts and
bit-identical latency arrays, not just close aggregates.
"""

import math

import numpy as np
import pytest

from repro.cluster.degraded import DegradedReadConfig, ReadServiceStats
from repro.cluster.readservice import (
    MAX_PATTERN_BITS,
    OutageWindows,
    ReadSchedule,
    ReadServiceEngine,
)
from repro.codes import pyramid_10_4, rs_10_4, three_replication, xorbas_lrc
from repro.experiments.degraded import DegradedScenario, run_degraded_scenarios
from repro.spec import DegradedReadSimulation

FAST = DegradedReadConfig(duration=2 * 3600.0)
STORMY = DegradedReadConfig(
    duration=3600.0,
    num_nodes=16,
    num_stripes=20,
    read_rate=4.0,
    outage_rate_per_node=1.0 / 600.0,
    outage_duration_mean=2500.0,
)


def assert_element_identical(a: ReadServiceStats, b: ReadServiceStats):
    assert a.total_reads == b.total_reads
    assert a.degraded_reads == b.degraded_reads
    assert a.failed_reads == b.failed_reads
    assert a.timed_out_reads == b.timed_out_reads
    assert np.array_equal(a.latencies, b.latencies)
    assert np.array_equal(a.degraded_latencies, b.degraded_latencies)


class TestOutageWindows:
    def test_matches_brute_force_union(self):
        rng = np.random.default_rng(5)
        num_nodes = 7
        node = rng.integers(num_nodes, size=60)
        start = rng.uniform(0, 100, size=60)
        duration = rng.exponential(8.0, size=60)
        windows = OutageWindows(num_nodes, node, start, duration)
        q_nodes = rng.integers(num_nodes, size=500)
        q_times = rng.uniform(0, 120, size=500)
        got = windows.is_up(q_nodes, q_times)
        end = start + duration
        for i in range(q_nodes.size):
            mine = node == q_nodes[i]
            down = np.any(
                mine & (start <= q_times[i]) & (q_times[i] < end)
            )
            assert got[i] == (not down)

    def test_boundary_semantics_match_the_spec(self):
        """Down at the exact outage start (outage events run before
        same-time reads), up again at exactly start + duration."""
        windows = OutageWindows(2, [0], [10.0], [5.0])
        up = windows.is_up(
            np.array([0, 0, 0, 0, 1]), np.array([9.9, 10.0, 14.9, 15.0, 10.0])
        )
        assert up.tolist() == [True, False, False, True, True]

    def test_overlapping_windows_merge(self):
        windows = OutageWindows(1, [0, 0, 0], [0.0, 3.0, 20.0], [5.0, 10.0, 1.0])
        assert windows.num_windows == 2
        up = windows.is_up(
            np.zeros(4, dtype=int), np.array([4.0, 12.9, 13.0, 20.5])
        )
        assert up.tolist() == [False, False, True, False]

    def test_no_outages_everything_up(self):
        windows = OutageWindows(3, [], [], [])
        assert windows.is_up(np.array([0, 1, 2]), np.array([0.0, 1.0, 2.0])).all()


class TestScheduleDraw:
    def test_cross_code_invariance(self):
        """The controlled-comparison contract, engine side: codes with
        different n AND different k see identical outage windows, read
        arrival times and stripe draws."""
        a = ReadSchedule.draw(FAST, three_replication(), seed=9)  # k = 1
        b = ReadSchedule.draw(FAST, rs_10_4(), seed=9)  # k = 10, n = 14
        c = ReadSchedule.draw(FAST, xorbas_lrc(), seed=9)  # k = 10, n = 16
        for other in (b, c):
            assert np.array_equal(a.outage_node, other.outage_node)
            assert np.array_equal(a.outage_start, other.outage_start)
            assert np.array_equal(a.outage_duration, other.outage_duration)
            assert np.array_equal(a.read_time, other.read_time)
            assert np.array_equal(a.read_stripe, other.read_stripe)
        # Same k -> same position stream too.
        assert np.array_equal(b.read_position, c.read_position)

    def test_arrivals_sorted_and_bounded(self):
        schedule = ReadSchedule.draw(FAST, xorbas_lrc(), seed=2)
        assert np.all(np.diff(schedule.read_time) > 0)
        assert schedule.read_time[-1] < FAST.duration
        assert schedule.read_position.max() < xorbas_lrc().k
        schedule.check(FAST, xorbas_lrc())

    def test_zipf_skews_stripe_popularity(self):
        config = DegradedReadConfig(
            duration=4 * 3600.0, num_stripes=50, zipf_exponent=1.5
        )
        schedule = ReadSchedule.draw(config, xorbas_lrc(), seed=4)
        counts = np.bincount(schedule.read_stripe, minlength=50)
        assert counts[0] > 5 * counts[25]
        assert counts.sum() == schedule.num_reads

    def test_diurnal_modulates_arrival_density(self):
        config = DegradedReadConfig(
            duration=86400.0, read_rate=1.0, diurnal_amplitude=0.9
        )
        schedule = ReadSchedule.draw(config, xorbas_lrc(), seed=6)
        times = schedule.read_time
        peak = ((times > 10800.0) & (times < 32400.0)).sum()  # around sin max
        trough = ((times > 54000.0) & (times < 75600.0)).sum()  # around sin min
        assert peak > 2 * trough

    def test_diurnal_preserves_mean_rate_on_partial_days(self):
        """Regression: a 6h horizon sits entirely in the sinusoid's
        positive half-cycle; without renormalization the delivered read
        count overshoots read_rate * duration by ~50%."""
        target = 100_000
        config = DegradedReadConfig(
            duration=6 * 3600.0,
            read_rate=target / (6 * 3600.0),
            diurnal_amplitude=0.8,
        )
        schedule = ReadSchedule.draw(config, xorbas_lrc(), seed=1)
        assert abs(schedule.num_reads - target) < 0.02 * target

    def test_rack_outages_are_correlated(self):
        config = DegradedReadConfig(
            duration=2 * 3600.0,
            num_nodes=20,
            num_racks=5,
            rack_outage_rate=1.0 / 1800.0,
        )
        schedule = ReadSchedule.draw(config, xorbas_lrc(), seed=8)
        by_window = {}
        for node, start in zip(
            schedule.outage_node.tolist(), schedule.outage_start.tolist()
        ):
            by_window.setdefault(start, []).append(node)
        rack_events = [nodes for nodes in by_window.values() if len(nodes) > 1]
        assert rack_events, "expected at least one expanded rack outage"
        for nodes in rack_events:
            assert len(nodes) == config.num_nodes // config.num_racks
            assert len({node % config.num_racks for node in nodes}) == 1

    def test_check_rejects_foreign_schedules(self):
        schedule = ReadSchedule.draw(FAST, rs_10_4(), seed=1)
        with pytest.raises(ValueError):
            schedule.check(FAST, three_replication())  # positions >= k=1
        small = DegradedReadConfig(duration=FAST.duration, num_stripes=2)
        with pytest.raises(ValueError):
            schedule.check(small, rs_10_4())

    def test_check_rejects_unsorted_arrivals(self):
        """Arrival order is part of the differential contract (the spec
        replays through a heap, the engine in array order)."""
        empty = np.empty(0)
        schedule = ReadSchedule(
            outage_node=np.empty(0, dtype=np.int64),
            outage_start=empty,
            outage_duration=empty,
            read_time=np.array([100.0, 50.0]),
            read_stripe=np.zeros(2, dtype=np.int64),
            read_position=np.zeros(2, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="time order"):
            schedule.check(FAST, xorbas_lrc())

    def test_check_rejects_negative_indices(self):
        """Negative stripe/position/node values would silently alias
        via numpy negative indexing — identically in both engines, so
        only validation can catch them."""
        def build(**overrides):
            fields = dict(
                outage_node=np.zeros(1, dtype=np.int64),
                outage_start=np.zeros(1),
                outage_duration=np.ones(1),
                read_time=np.array([1.0]),
                read_stripe=np.zeros(1, dtype=np.int64),
                read_position=np.zeros(1, dtype=np.int64),
            )
            fields.update(overrides)
            return ReadSchedule(**fields)

        code = xorbas_lrc()
        build().check(FAST, code)  # the baseline is valid
        for bad in (
            build(read_stripe=np.array([-2])),
            build(read_position=np.array([-1])),
            build(outage_node=np.array([-3])),
            build(read_time=np.array([-1.0])),
            build(outage_start=np.array([-5.0])),
            # Misaligned columns: the spec's zip would truncate them.
            build(read_stripe=np.zeros(2, dtype=np.int64)),
            build(outage_start=np.zeros(2)),
        ):
            with pytest.raises(ValueError):
                bad.check(FAST, code)


class TestDifferentialEquivalence:
    @pytest.mark.parametrize(
        "make_code", [three_replication, rs_10_4, xorbas_lrc, pyramid_10_4]
    )
    def test_engine_matches_spec_on_shared_schedule(self, make_code):
        code = make_code()
        schedule = ReadSchedule.draw(FAST, code, seed=3)
        spec = DegradedReadSimulation(
            code, config=FAST, seed=3, schedule=schedule
        ).run()
        engine = ReadServiceEngine(
            code, config=FAST, seed=3, schedule=schedule
        ).run()
        assert spec.total_reads > 0
        assert_element_identical(spec, engine)

    @pytest.mark.parametrize("make_code", [three_replication, xorbas_lrc])
    def test_equivalence_under_outage_storms(self, make_code):
        """Heavy failure pressure: failed reads and heavy decodes must
        match exactly, not just the happy path."""
        code = make_code()
        schedule = ReadSchedule.draw(STORMY, code, seed=7)
        spec = DegradedReadSimulation(
            code, config=STORMY, seed=7, schedule=schedule
        ).run()
        engine = ReadServiceEngine(
            code, config=STORMY, seed=7, schedule=schedule
        ).run()
        assert spec.failed_reads > 0
        assert spec.degraded_reads > 0
        assert_element_identical(spec, engine)

    @pytest.mark.parametrize(
        "config",
        [
            DegradedReadConfig(duration=3600.0, zipf_exponent=1.3),
            DegradedReadConfig(duration=3600.0, diurnal_amplitude=0.7),
            DegradedReadConfig(
                duration=3600.0,
                num_racks=5,
                rack_outage_rate=1.0 / 1800.0,
                rack_outage_duration_mean=1200.0,
            ),
            DegradedReadConfig(
                duration=3600.0,
                num_stripes=40,
                zipf_exponent=1.1,
                diurnal_amplitude=0.5,
                num_racks=4,
                rack_outage_rate=1.0 / 1800.0,
            ),
        ],
        ids=["zipf", "diurnal", "racks", "composite"],
    )
    def test_equivalence_across_scenarios(self, config):
        code = xorbas_lrc()
        schedule = ReadSchedule.draw(config, code, seed=5)
        spec = DegradedReadSimulation(
            code, config=config, seed=5, schedule=schedule
        ).run()
        engine = ReadServiceEngine(
            code, config=config, seed=5, schedule=schedule
        ).run()
        assert_element_identical(spec, engine)

    @pytest.mark.parametrize(
        "config",
        [
            FAST,
            DegradedReadConfig(
                duration=3600.0,
                num_stripes=40,
                zipf_exponent=1.2,
                diurnal_amplitude=0.5,
                num_racks=5,
                rack_outage_rate=1.0 / 1800.0,
            ),
        ],
        ids=["plain", "scenarios"],
    )
    @pytest.mark.parametrize(
        "make_code", [three_replication, rs_10_4, xorbas_lrc, pyramid_10_4]
    )
    def test_spec_and_engine_agree_on_the_seed_alone(self, make_code, config):
        """One schedule generator: with no schedule passed, both sides
        draw ``ReadSchedule.draw(config, code, seed)`` and the same
        placement, so their stats agree element for element."""
        spec_sim = DegradedReadSimulation(make_code(), config=config, seed=4)
        engine_sim = ReadServiceEngine(make_code(), config=config, seed=4)
        assert spec_sim.schedule.same_as(engine_sim.schedule)
        spec = spec_sim.run()
        assert spec.total_reads > 0
        assert_element_identical(spec, engine_sim.run())


class TestReadServiceEngine:
    def test_deterministic_given_seed(self):
        a = ReadServiceEngine(xorbas_lrc(), config=FAST, seed=11).run()
        b = ReadServiceEngine(xorbas_lrc(), config=FAST, seed=11).run()
        assert_element_identical(a, b)

    def test_placement_matches_spec_stream(self):
        spec = DegradedReadSimulation(xorbas_lrc(), config=FAST, seed=13)
        engine = ReadServiceEngine(xorbas_lrc(), config=FAST, seed=13)
        assert np.array_equal(spec.placement, engine.placement)

    def test_patterns_are_interned_once(self):
        code = xorbas_lrc()
        engine = ReadServiceEngine(code, config=FAST, seed=3)
        stats = engine.run()
        assert stats.degraded_reads > 0
        assert 0 < engine.distinct_patterns <= stats.degraded_reads
        # plan_block ran once per distinct (position, pattern) key.
        assert code.planner.misses == engine.distinct_patterns

    def test_compare_vectorized_upholds_pairing(self):
        (rows,) = run_degraded_scenarios(
            scenarios=(DegradedScenario("fast", FAST),), seed=3
        ).values()
        assert [stats.scheme for stats in rows] == [
            "3-replication", "RS(10,4)", "LRC(10,6,5)"
        ]
        assert len({stats.total_reads for stats in rows}) == 1
        by_name = {stats.scheme: stats for stats in rows}
        assert by_name["RS(10,4)"].degraded_fraction == pytest.approx(
            by_name["LRC(10,6,5)"].degraded_fraction, abs=0.01
        )

    def test_engine_rejects_oversized_stripes(self):
        class WideFake:
            n = MAX_PATTERN_BITS + 1
            k = 2

        config = DegradedReadConfig(num_nodes=MAX_PATTERN_BITS + 2)
        with pytest.raises(ValueError, match="pattern interning"):
            ReadServiceEngine(WideFake(), config=config)

    def test_empty_window_stats_are_nan(self):
        config = DegradedReadConfig(duration=10.0, read_rate=1e-9)
        stats = ReadServiceEngine(xorbas_lrc(), config=config, seed=1).run()
        assert stats.total_reads == 0
        assert math.isnan(stats.availability)
        assert math.isnan(stats.degraded_fraction)
        assert math.isnan(stats.mean_latency)


class TestScenarioHarness:
    def test_scenario_sweep_runs_and_renders(self):
        from repro.experiments import degraded_scenarios, render_degraded_scenarios

        scenarios = tuple(
            s for s in degraded_scenarios(duration=1800.0, read_rate=1.0)
        )
        results = run_degraded_scenarios(scenarios=scenarios, seed=2)
        assert set(results) == {
            "uniform", "zipf hot/cold", "diurnal", "rack-correlated"
        }
        for rows in results.values():
            assert len({stats.total_reads for stats in rows}) == 1
        table = render_degraded_scenarios(results)
        assert "rack-correlated" in table
        assert "LRC(10,6,5)" in table

    def test_scenario_sweep_is_cached_per_cell(self, tmp_path):
        from repro.experiments import degraded_scenarios
        from repro.experiments.parallel import ResultCache

        scenarios = degraded_scenarios(duration=900.0, read_rate=1.0)[:2]
        cache = ResultCache(tmp_path)
        first = run_degraded_scenarios(scenarios=scenarios, seed=3, cache=cache)
        # 2 scenarios x 3 registry schemes, every cell a fresh run.
        assert cache.misses == 6 and cache.hits == 0
        warm = ResultCache(tmp_path)
        second = run_degraded_scenarios(scenarios=scenarios, seed=3, cache=warm)
        assert warm.hits == 6 and warm.misses == 0
        for name in first:
            for a, b in zip(first[name], second[name]):
                assert a.scheme == b.scheme
                assert_element_identical(a, b)

    def test_scenario_config_keys_every_config_field(self):
        from dataclasses import asdict

        from repro.cluster.degraded import DegradedReadConfig
        from repro.experiments.degraded import (
            run_scenario_config,
            scenario_config,
        )

        config = DegradedReadConfig(duration=600.0, read_rate=1.0)
        cell = scenario_config("uniform", "RS(10,4)", config, seed=5)
        assert set(cell["config"]) == set(asdict(config))
        stats = run_scenario_config(cell)
        assert stats.scheme == "RS(10,4)"

    def test_scenario_config_rejects_unknown_scheme(self):
        import pytest

        from repro.cluster.degraded import DegradedReadConfig
        from repro.experiments.degraded import scenario_config

        with pytest.raises(ValueError, match="unknown scheme"):
            scenario_config("uniform", "nope", DegradedReadConfig())
