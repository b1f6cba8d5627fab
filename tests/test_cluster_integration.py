"""Integration tests: the full HDFS-RAID stack end to end.

These exercise the pipelines the paper's experiments depend on — RAIDing,
failure detection, light/heavy repair, degraded reads — with bit-exact
payload verification inside every repair.
"""

import numpy as np
import pytest

from repro.cluster import (
    BlockFixer,
    DegradedReadStats,
    FailureInjector,
    FailureEventRecord,
    HadoopCluster,
    MapReduceJob,
    RaidNode,
    ec2_config,
    make_wordcount_job,
)
from repro.codes import rs_10_4, xorbas_lrc
from repro.experiments.runner import run_until_quiescent

pytestmark = pytest.mark.slow  # drives full cluster simulations


def small_config(**overrides):
    base = dict(
        num_nodes=20,
        failure_detection_delay=30.0,
        blockfixer_interval=15.0,
        job_startup=5.0,
        raidnode_interval=15.0,
    )
    base.update(overrides)
    return ec2_config(num_nodes=base.pop("num_nodes")).scaled(**base)


def loaded_cluster(code, files=4, file_size=640e6, seed=5, **overrides):
    cluster = HadoopCluster(code, small_config(**overrides), seed=seed)
    for i in range(files):
        cluster.create_file(f"f{i}", file_size)
    cluster.raid_all_instant()
    return cluster


class TestRaiding:
    def test_instant_raid_places_all_blocks(self):
        cluster = loaded_cluster(xorbas_lrc())
        assert cluster.fsck()["stored_blocks"] == 4 * 16

    def test_raidnode_encode_job(self):
        cluster = HadoopCluster(xorbas_lrc(), small_config(), seed=1)
        cluster.create_file("f0", 640e6)
        raidnode = RaidNode(cluster)
        raidnode.start()
        cluster.run(until=3600)
        raidnode.stop()
        assert cluster.files["f0"].raided
        assert cluster.fsck()["stored_blocks"] == 16

    def test_raidnode_respects_policy(self):
        cluster = HadoopCluster(xorbas_lrc(), small_config(), seed=1)
        cluster.create_file("f0", 640e6)
        raidnode = RaidNode(cluster, should_raid=lambda f: False)
        raidnode.start()
        cluster.run(until=600)
        raidnode.stop()
        assert not cluster.files["f0"].raided

    def test_raidnode_scan_picks_candidates_in_name_order(self):
        cluster = HadoopCluster(xorbas_lrc(), small_config(), seed=1)
        for name in ("f3", "f0", "f4", "f1", "f2", "f5"):
            cluster.create_file(name, 640e6)
        cluster.raid_file_instant("f4")
        raidnode = RaidNode(cluster, should_raid=lambda stored: stored.name != "f1")
        raidnode.in_flight.add("f2")
        job = raidnode.scan()
        # Not f4 (RAIDed), f2 (in flight) or f1 (policy); sorted by name.
        assert [task.stripe.file_name for task in job.tasks] == ["f0", "f3", "f5"]
        assert raidnode.in_flight == {"f0", "f2", "f3", "f5"}
        assert raidnode.scan() is None  # everything left is excluded

    def test_raidnode_never_dispatches_files_raided_out_of_band(self):
        cluster = HadoopCluster(xorbas_lrc(), small_config(), seed=1)
        cluster.create_file("f0", 640e6)
        cluster.create_file("f1", 640e6)
        cluster.raid_all_instant()
        cluster.create_file("f2", 640e6)
        raidnode = RaidNode(cluster)
        raidnode.start()
        cluster.run(until=3600)
        raidnode.stop()
        encoded = [
            task.stripe.file_name
            for job in cluster.jobtracker.jobs
            for task in job.tasks
        ]
        assert encoded == ["f2"]
        assert all(stored.raided for stored in cluster.files.values())

    def test_encode_accounts_reads_and_writes(self):
        cluster = HadoopCluster(xorbas_lrc(), small_config(), seed=1)
        cluster.create_file("f0", 640e6)
        RaidNode(cluster).start()
        cluster.run(until=3600)
        # The encode read all 10 data blocks and wrote 6 parities.
        assert cluster.metrics.hdfs_bytes_read >= 10 * 64e6
        assert cluster.metrics.bytes_written == pytest.approx(6 * 64e6)

    def test_duplicate_file_rejected(self):
        cluster = HadoopCluster(xorbas_lrc(), small_config(), seed=1)
        cluster.create_file("f0", 640e6)
        with pytest.raises(ValueError):
            cluster.create_file("f0", 640e6)


class TestRepairPipeline:
    @pytest.mark.parametrize("code_factory", [xorbas_lrc, rs_10_4])
    def test_single_node_failure_fully_repaired(self, code_factory):
        cluster = loaded_cluster(code_factory())
        fixer = BlockFixer(cluster)
        fixer.start()
        injector = FailureInjector(cluster, np.random.default_rng(2))
        _, lost = injector.kill(1)
        assert lost > 0
        run_until_quiescent(cluster, fixer)
        assert cluster.fsck()["missing_blocks"] == 0
        assert cluster.fsck()["stored_blocks"] == 4 * cluster.code.n
        assert not cluster.data_loss_events

    def test_xorbas_single_losses_all_light(self):
        cluster = loaded_cluster(xorbas_lrc())
        fixer = BlockFixer(cluster)
        fixer.start()
        record = cluster.metrics.begin_event(FailureEventRecord("e", 1, 0.0))
        injector = FailureInjector(cluster, np.random.default_rng(2))
        _, lost = injector.kill(1)
        run_until_quiescent(cluster, fixer)
        cluster.metrics.end_event()
        assert record.light_repairs == lost
        assert record.heavy_repairs == 0
        # Light repairs read exactly 5 blocks each (full stripes).
        assert cluster.metrics.hdfs_bytes_read == pytest.approx(lost * 5 * 64e6)

    def test_rs_repairs_read_all_survivors(self):
        cluster = loaded_cluster(rs_10_4())
        fixer = BlockFixer(cluster)
        fixer.start()
        injector = FailureInjector(cluster, np.random.default_rng(2))
        _, lost = injector.kill(1)
        run_until_quiescent(cluster, fixer)
        # One block lost per stripe -> 13 survivors read per repair.
        assert cluster.metrics.hdfs_bytes_read == pytest.approx(lost * 13 * 64e6)

    def test_triple_failure_recovers(self):
        cluster = loaded_cluster(xorbas_lrc(), files=6)
        fixer = BlockFixer(cluster)
        fixer.start()
        injector = FailureInjector(cluster, np.random.default_rng(4))
        injector.kill(3)
        run_until_quiescent(cluster, fixer)
        assert cluster.fsck()["missing_blocks"] == 0
        assert not cluster.data_loss_events

    def test_sequential_events_accumulate(self):
        cluster = loaded_cluster(xorbas_lrc())
        fixer = BlockFixer(cluster)
        fixer.start()
        injector = FailureInjector(cluster, np.random.default_rng(6))
        for _ in range(3):
            injector.kill(1)
            run_until_quiescent(cluster, fixer)
        assert cluster.fsck()["missing_blocks"] == 0
        assert cluster.fsck()["dead_nodes"] == 3

    def test_repair_conserves_bytes(self):
        """Global HDFS bytes read equals per-node disk reads summed."""
        cluster = loaded_cluster(xorbas_lrc())
        fixer = BlockFixer(cluster)
        fixer.start()
        FailureInjector(cluster, np.random.default_rng(2)).kill(1)
        run_until_quiescent(cluster, fixer)
        per_node = sum(cluster.metrics.disk_read_by_node.values())
        assert per_node == pytest.approx(cluster.metrics.hdfs_bytes_read)

    def test_traffic_roughly_double_reads(self):
        """The Section 5.2.2 observation the accounting reproduces."""
        cluster = loaded_cluster(xorbas_lrc())
        fixer = BlockFixer(cluster)
        fixer.start()
        FailureInjector(cluster, np.random.default_rng(2)).kill(1)
        run_until_quiescent(cluster, fixer)
        ratio = cluster.metrics.network_out_bytes / cluster.metrics.hdfs_bytes_read
        assert 1.7 <= ratio <= 2.3

    def test_data_loss_recorded_beyond_tolerance(self):
        # 16-node cluster, one stripe: kill 5 nodes holding stripe blocks
        # of the same stripe -> beyond d-1 = 4 erasures.
        cluster = HadoopCluster(
            xorbas_lrc(), small_config(num_nodes=16), seed=3
        )
        cluster.create_file("f0", 640e6)
        cluster.raid_all_instant()
        fixer = BlockFixer(cluster)
        fixer.start()
        stripe = cluster.all_stripes()[0]
        victims = {
            cluster.namenode.locate(stripe, p) for p in range(5)
        }
        for node_id in victims:
            cluster.fail_node(node_id)
        run_until_quiescent(cluster, fixer)
        assert cluster.data_loss_events
        assert cluster.fsck()["missing_blocks"] == 0  # written off, not stuck

    def test_padded_stripe_repair_reads_fewer_blocks(self):
        cluster = HadoopCluster(xorbas_lrc(), small_config(), seed=9)
        cluster.create_file("small", 3 * 64e6)  # 3 data blocks, zero-padded
        cluster.raid_all_instant()
        fixer = BlockFixer(cluster)
        fixer.start()
        stripe = cluster.all_stripes()[0]
        victim = cluster.namenode.locate(stripe, 0)
        cluster.fail_node(victim)
        run_until_quiescent(cluster, fixer)
        # Light repair of X1 reads X2, X3 and S1 only (X4, X5 are virtual).
        assert cluster.metrics.hdfs_bytes_read == pytest.approx(3 * 64e6)


class TestDegradedReads:
    def test_wordcount_with_missing_blocks(self):
        cluster = loaded_cluster(xorbas_lrc(), files=2)
        stripe = cluster.all_stripes()[0]
        cluster.namenode.remove_block(stripe, 2)
        cluster.namenode.mark_missing(stripe, 2)
        stats = DegradedReadStats()
        job = make_wordcount_job(cluster, cluster.files["f0"], stats)
        cluster.jobtracker.submit(job)
        cluster.run(until=48 * 3600)
        assert job.is_finished
        assert stats.degraded_reads == 1
        assert stats.reconstruction_reads == 5  # light reconstruction

    def test_degraded_read_does_not_write_back(self):
        cluster = loaded_cluster(xorbas_lrc(), files=1)
        stripe = cluster.all_stripes()[0]
        cluster.namenode.remove_block(stripe, 0)
        cluster.namenode.mark_missing(stripe, 0)
        stats = DegradedReadStats()
        job = make_wordcount_job(cluster, cluster.files["f0"], stats)
        cluster.jobtracker.submit(job)
        cluster.run(until=48 * 3600)
        assert job.is_finished
        # The block is still missing: degraded reads never store blocks.
        assert cluster.namenode.is_missing(stripe, 0)
        assert cluster.metrics.bytes_written == 0.0


class TestJobTracker:
    def test_fair_scheduler_shares_slots(self):
        cluster = loaded_cluster(xorbas_lrc(), files=2)
        stats = DegradedReadStats()
        job_a = make_wordcount_job(cluster, cluster.files["f0"], stats)
        job_b = make_wordcount_job(cluster, cluster.files["f1"], stats)
        cluster.jobtracker.submit(job_a)
        cluster.jobtracker.submit(job_b)
        cluster.run(until=48 * 3600)
        assert job_a.is_finished and job_b.is_finished
        # Fair sharing: neither job waits for the other to fully finish.
        assert abs(job_a.finish_time - job_b.finish_time) < 0.5 * (
            job_a.elapsed + job_b.elapsed
        )

    def test_empty_job_completes(self):
        cluster = loaded_cluster(xorbas_lrc(), files=1)
        finished = []
        job = MapReduceJob("empty", [], on_complete=lambda j: finished.append(j))
        cluster.jobtracker.submit(job)
        cluster.run(until=60)
        assert finished == [job]
