"""Differential tests: the four daemon engines vs their scalar specs.

Each vectorized daemon (scrubber, decommission, FairScheduler,
raidnode) is held element-identical to the seed implementation on
shared schedules, per the spec/engine contract the difftest framework
encodes.  These are the harness instances the PR 1-5 subsystems grew by
hand, now a few dozen lines each.
"""

import numpy as np
import pytest

from repro.cluster import HadoopCluster, ScrubberDaemon, ec2_config
from repro.cluster.decommission import plan_recreates_vectorized
from repro.cluster.fairscheduler import SchedulerState, plan_pass_vectorized
from repro.cluster.raidscan import RaidScanIndex, RaidScanSchedule
from repro.cluster.scrubengine import CorruptionSchedule, ScrubEngine
from repro.codes import rs_10_4, xorbas_lrc
from repro.difftest import assert_bit_identical
from repro.spec import (
    Scrubber,
    plan_pass_seed,
    plan_recreates_seed,
    scan_candidates_seed,
    with_specs,
)


def spec_of(subsystem, engine):
    """``with_specs`` arguments putting ``subsystem`` on the named engine."""
    return (subsystem,) if engine == "seed" else ()


def build_cluster(code, files=6, seed=0):
    cluster = HadoopCluster(code, ec2_config(num_nodes=50), seed=seed)
    for i in range(files):
        cluster.create_file(f"file{i}", 640e6)
    cluster.raid_all_instant()
    return cluster


class TestScrubberDifferential:
    @pytest.mark.parametrize("code_factory", [xorbas_lrc, rs_10_4])
    def test_reports_identical_on_shared_corruption(self, code_factory):
        clusters = [build_cluster(code_factory()), build_cluster(code_factory())]
        spec = Scrubber()
        engine = ScrubEngine()
        stripes_by_impl = []
        for cluster in clusters:
            stripes = [
                stripe
                for stored in cluster.files.values()
                for stripe in stored.stripes
                if stripe.payload is not None
            ]
            stripes_by_impl.append(stripes)
        for stripe in stripes_by_impl[0]:
            spec.record_stripe(stripe)
        for stripe in stripes_by_impl[1]:
            engine.record_stripe(stripe)

        schedule = CorruptionSchedule.draw(
            np.random.default_rng(7),
            num_stripes=len(stripes_by_impl[0]),
            events=10,
            max_position=code_factory().k,
            seed=11,
        )
        # Same noise applied to both copies of the same cluster state.
        schedule.apply(stripes_by_impl[0])
        schedule.apply(stripes_by_impl[1])

        spec_report = spec.scrub(stripes_by_impl[0])
        engine_report = engine.scrub(stripes_by_impl[1])
        assert spec_report == engine_report
        assert not spec_report.clean  # the schedule actually corrupted
        # Healing converged to byte-identical payloads.
        for a, b in zip(stripes_by_impl[0], stripes_by_impl[1]):
            np.testing.assert_array_equal(a.payload, b.payload)
        # Both are clean on a re-scan.
        assert spec.scrub(stripes_by_impl[0]).clean
        assert engine.scrub(stripes_by_impl[1]).clean

    def test_daemon_engine_seed_end_to_end(self):
        healed = {}
        for engine in ("seed", "vectorized"):
            cluster = build_cluster(xorbas_lrc())
            with with_specs(*spec_of("scrubber", engine)):
                daemon = ScrubberDaemon(cluster, scan_interval=600.0)
            scanner = Scrubber if engine == "seed" else ScrubEngine
            assert isinstance(daemon._scanner, scanner)
            daemon.record_checksums()
            daemon.start()
            stripes = cluster.files["file1"].stripes
            schedule = CorruptionSchedule.draw(
                np.random.default_rng(3),
                num_stripes=len(stripes),
                events=3,
                max_position=10,
                seed=5,
            )
            schedule.apply(stripes)
            cluster.run(until=601.0)
            healed[engine] = (
                daemon.total_healed,
                daemon.total_blocks_read,
                [r.healed_blocks for r in daemon.reports],
            )
        assert healed["seed"] == healed["vectorized"]
        assert healed["seed"][0] > 0


class TestDecommissionDifferential:
    @pytest.mark.parametrize("code_factory", [xorbas_lrc, rs_10_4])
    def test_plans_identical(self, code_factory):
        cluster = build_cluster(code_factory(), files=12, seed=4)
        # Degrade some stripes so plans mix light/heavy/copy kinds.
        cluster.fail_node("node013")
        cluster.fail_node("node021")
        for victim in ("node002", "node010", "node030"):
            spec_plan = plan_recreates_seed(cluster, victim)
            engine_plan = plan_recreates_vectorized(cluster, victim)
            assert spec_plan == engine_plan
            assert spec_plan  # the victim actually held blocks

    def test_vectorized_interns_per_pattern(self):
        cluster = build_cluster(xorbas_lrc(), files=12, seed=1)
        planner = cluster.code.planner
        before = planner.misses
        plan_recreates_vectorized(cluster, "node001")
        first = planner.misses - before
        plan_recreates_seed(cluster, "node001")
        # The seed replans the same patterns: all cache hits, no misses.
        assert planner.misses - before == first


class TestFairSchedulerDifferential:
    def test_plans_identical_across_random_states(self):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(200):
            state = SchedulerState.draw(
                rng,
                jobs=int(rng.integers(1, 40)),
                total_slots=int(rng.integers(0, 120)),
            )
            state.check()
            spec = plan_pass_seed(state)
            engine = plan_pass_vectorized(state)
            np.testing.assert_array_equal(spec, engine)
            checked += spec.size
        assert checked > 1000  # the states actually scheduled work

    def test_tie_breaking_matches_spec(self):
        # Identical ratios and submit times: job_id decides, smaller first.
        state = SchedulerState(
            total_slots=4,
            running=np.array([0, 0], dtype=np.int64),
            pending=np.array([5, 5], dtype=np.int64),
            weight=np.array([1.0, 1.0]),
            submit_time=np.array([10.0, 10.0]),
            job_id=np.array([2, 1], dtype=np.int64),
        )
        expected = plan_pass_seed(state)
        np.testing.assert_array_equal(plan_pass_vectorized(state), expected)
        # First two picks alternate starting at the smaller job_id.
        np.testing.assert_array_equal(expected[:2], [1, 0])

    def test_fractional_weights_exercise_float_keys(self):
        state = SchedulerState(
            total_slots=7,
            running=np.array([3, 1, 4], dtype=np.int64),
            pending=np.array([10, 10, 10], dtype=np.int64),
            weight=np.array([3.0, 0.7, 2.5]),
            submit_time=np.array([5.0, 1.0, 9.0]),
            job_id=np.array([1, 2, 3], dtype=np.int64),
        )
        np.testing.assert_array_equal(
            plan_pass_vectorized(state), plan_pass_seed(state)
        )

    def test_workload_identical_under_both_engines(self):
        from repro.cluster.workload import DegradedReadStats, make_wordcount_job

        results = {}
        for engine in ("seed", "vectorized"):
            with with_specs(*spec_of("mapreduce", engine)):
                cluster = build_cluster(xorbas_lrc(), files=3)
                expected = plan_pass_seed if engine == "seed" else plan_pass_vectorized
                assert cluster.jobtracker.plan_pass is expected
                stats = DegradedReadStats()
                jobs = []
                for i in range(3):
                    job = make_wordcount_job(
                        cluster, cluster.files[f"file{i}"], stats
                    )
                    job.weight = float(1 + i)
                    cluster.jobtracker.submit(job)
                    jobs.append(job)
                cluster.run(until=20000.0)
            results[engine] = [
                (job.completed, job.start_time, job.finish_time)
                for job in jobs
            ]
        assert results["seed"] == results["vectorized"]
        assert all(finish is not None for _, _, finish in results["seed"])


class TestRaidScanDifferential:
    def _files_from_schedule(self, schedule):
        class FakeFile:
            def __init__(self, name, raided):
                self.name = name
                self.raided = raided

        names = [f"f{i:06d}" for i in np.random.default_rng(1).permutation(
            schedule.raided.size
        )]
        files = {
            name: FakeFile(name, bool(schedule.raided[i]))
            for i, name in enumerate(names)
        }
        in_flight = {name for i, name in enumerate(names) if schedule.in_flight[i]}
        policy = {name: bool(schedule.policy[i]) for i, name in enumerate(names)}
        return files, in_flight, policy

    def test_candidates_identical(self):
        schedule = RaidScanSchedule.draw(np.random.default_rng(5), files=500)
        schedule.check()
        files, in_flight, policy = self._files_from_schedule(schedule)
        should_raid = lambda stored: policy[stored.name]
        spec = scan_candidates_seed(files, in_flight, should_raid)
        index = RaidScanIndex()
        engine = index.candidates(files, in_flight, should_raid)
        assert [f.name for f in spec] == [f.name for f in engine]

    def test_statefulness_across_scans(self):
        schedule = RaidScanSchedule.draw(np.random.default_rng(9), files=300)
        files, in_flight, policy = self._files_from_schedule(schedule)
        should_raid = lambda stored: policy[stored.name]
        index = RaidScanIndex()
        for round_ in range(3):
            spec = scan_candidates_seed(files, in_flight, should_raid)
            engine = index.candidates(files, in_flight, should_raid)
            assert [f.name for f in spec] == [f.name for f in engine]
            # RAID half of the candidates out-of-band (the stale path).
            for stored in spec[::2]:
                stored.raided = True
        # Stale entries were swept: pending tracks reality.
        live = sum(1 for f in files.values() if not f.raided)
        assert index.pending_count <= live + len(in_flight)

    def test_raidnode_end_to_end_identical(self):
        from repro.cluster.raidnode import RaidNode

        outcomes = {}
        for engine in ("seed", "vectorized"):
            cluster = HadoopCluster(xorbas_lrc(), ec2_config(num_nodes=50), seed=2)
            for i in range(4):
                cluster.create_file(f"file{i}", 640e6)
            with with_specs(*spec_of("raidnode", engine)):
                node = RaidNode(cluster, interval=60.0)
            assert isinstance(node.scan_index, RaidScanIndex) == (
                engine == "vectorized"
            )
            node.start()
            cluster.run(until=4000.0)
            outcomes[engine] = sorted(
                (name, stored.raided) for name, stored in cluster.files.items()
            )
        assert outcomes["seed"] == outcomes["vectorized"]
        assert all(raided for _, raided in outcomes["seed"])


class TestReadScheduleIsArraySchedule:
    def test_read_schedule_uses_framework(self):
        from repro.cluster.degraded import DegradedReadConfig
        from repro.cluster.readservice import ReadSchedule
        from repro.difftest import ArraySchedule

        config = DegradedReadConfig(
            num_nodes=20, num_stripes=50, duration=500.0, read_rate=0.5
        )
        schedule = ReadSchedule.draw(config, xorbas_lrc(), seed=3)
        assert isinstance(schedule, ArraySchedule)
        assert set(schedule.arrays()) == {
            "outage_node",
            "outage_start",
            "outage_duration",
            "read_time",
            "read_stripe",
            "read_position",
        }
        assert schedule.same_as(ReadSchedule.draw(config, xorbas_lrc(), seed=3))
        assert not schedule.same_as(
            ReadSchedule.draw(config, xorbas_lrc(), seed=4)
        )
        assert_bit_identical(schedule.read_time, schedule.read_time.copy())
