"""Tests for node decommissioning as a scheduled repair (Section 1.1)."""

import pytest

from repro.cluster import DecommissionManager, HadoopCluster, ec2_config
from repro.codes import rs_10_4, xorbas_lrc


def loaded_cluster(code, files=4, nodes=20, seed=11):
    config = ec2_config(num_nodes=nodes).scaled(
        job_startup=5.0, failure_detection_delay=30.0
    )
    cluster = HadoopCluster(code, config, seed=seed)
    for i in range(files):
        cluster.create_file(f"f{i}", 640e6)
    cluster.raid_all_instant()
    return cluster


def pick_loaded_node(cluster):
    return max(
        cluster.namenode.alive_nodes(), key=lambda n: (n.block_count, n.node_id)
    ).node_id


class TestDecommission:
    def test_node_fully_drained_and_retired(self):
        cluster = loaded_cluster(xorbas_lrc())
        victim = pick_loaded_node(cluster)
        before = cluster.namenode.node(victim).block_count
        assert before > 0
        manager = DecommissionManager(cluster, victim)
        manager.start()
        cluster.run(until=24 * 3600)
        assert manager.retired
        assert cluster.namenode.node(victim).block_count == 0
        assert not cluster.namenode.node(victim).alive
        assert manager.blocks_relocated == before

    def test_no_blocks_lost(self):
        cluster = loaded_cluster(xorbas_lrc())
        total_before = cluster.fsck()["stored_blocks"]
        manager = DecommissionManager(cluster, pick_loaded_node(cluster))
        manager.start()
        cluster.run(until=24 * 3600)
        assert cluster.fsck()["stored_blocks"] == total_before
        assert cluster.fsck()["missing_blocks"] == 0

    def test_lrc_decommission_avoids_retiring_node(self):
        """The paper's point: blocks are *recreated* from repair groups,
        so the retiring node serves (almost) no reads."""
        cluster = loaded_cluster(xorbas_lrc())
        victim = pick_loaded_node(cluster)
        manager = DecommissionManager(cluster, victim)
        manager.start()
        cluster.run(until=24 * 3600)
        assert manager.bytes_read_from_retiring_node == 0.0

    def test_rs_decommission_reads_survivors(self):
        """RS has no light decoder, so recreation reads full stripes —
        still avoiding the retiring node, at higher network cost."""
        cluster = loaded_cluster(rs_10_4())
        victim = pick_loaded_node(cluster)
        blocks = cluster.namenode.node(victim).block_count
        manager = DecommissionManager(cluster, victim)
        manager.start()
        cluster.run(until=24 * 3600)
        assert manager.retired
        # Each recreation read all 13 surviving blocks of its stripe.
        expected = blocks * 13 * cluster.config.block_size
        assert cluster.metrics.hdfs_bytes_read == pytest.approx(expected)
        assert manager.bytes_read_from_retiring_node == 0.0

    def test_task_plans_under_the_pattern_at_execute_time(self):
        """A stripe that loses another block after ``start()`` is read
        under its current pattern: the lost source is planned around."""
        cluster = loaded_cluster(xorbas_lrc())
        victim = pick_loaded_node(cluster)
        manager = DecommissionManager(cluster, victim)
        task = manager.start().tasks[0]
        lost = task._decide(cluster).sources[0]
        cluster.fail_node(cluster.namenode.locate(task.stripe, lost))
        replanned = task._decide(cluster)
        assert lost not in replanned.sources
        reads = []
        read_blocks = cluster.read_blocks

        def spy(executor, stripe, positions, **callbacks):
            reads.append((stripe, list(positions)))
            return read_blocks(executor, stripe, positions, **callbacks)

        cluster.read_blocks = spy
        cluster.run(until=24 * 3600)
        assert manager.retired
        read = [positions for stripe, positions in reads if stripe is task.stripe]
        assert read == [list(replanned.sources)]
        assert manager.bytes_read_from_retiring_node == 0.0

    def test_lrc_decommission_cheaper_than_rs(self):
        readings = {}
        for name, code in (("lrc", xorbas_lrc()), ("rs", rs_10_4())):
            cluster = loaded_cluster(code)
            victim = pick_loaded_node(cluster)
            blocks = cluster.namenode.node(victim).block_count
            DecommissionManager(cluster, victim).start()
            cluster.run(until=24 * 3600)
            readings[name] = cluster.metrics.hdfs_bytes_read / blocks
        assert readings["lrc"] < 0.5 * readings["rs"]

    def test_retiring_node_not_a_placement_target(self):
        cluster = loaded_cluster(xorbas_lrc(), files=2)
        victim = pick_loaded_node(cluster)
        cluster.namenode.node(victim).decommissioning = True
        cluster.create_file("extra", 640e6)
        cluster.raid_file_instant("extra")
        for stripe in cluster.files["extra"].stripes:
            for position in stripe.stored_positions():
                assert cluster.namenode.locate(stripe, position) != victim

    def test_cannot_decommission_dead_node(self):
        cluster = loaded_cluster(xorbas_lrc())
        victim = pick_loaded_node(cluster)
        cluster.fail_node(victim)
        with pytest.raises(ValueError):
            DecommissionManager(cluster, victim).start()

    def test_completion_callback(self):
        cluster = loaded_cluster(xorbas_lrc(), files=1)
        victim = pick_loaded_node(cluster)
        seen = []
        DecommissionManager(cluster, victim).start(on_complete=seen.append)
        cluster.run(until=24 * 3600)
        assert len(seen) == 1
        assert seen[0].retired
