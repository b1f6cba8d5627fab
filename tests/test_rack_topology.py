"""Tests for rack-aware topology: placement, uplinks, cross-rack traffic.

Section 4's reliability analysis rests on "all coded blocks of a stripe
are placed in different racks", making every repair download cross-rack
and capping repair bandwidth at the rack uplink gamma.
"""

import numpy as np
import pytest

from repro.cluster import (
    BlockFixer,
    FailureInjector,
    FlowTable,
    HadoopCluster,
    MetricsCollector,
    Simulation,
    ec2_config,
)
from repro.codes import xorbas_lrc
from repro.experiments.runner import run_until_quiescent
from repro.spec import Network


def rack_cluster(num_nodes=20, num_racks=4, files=4, **overrides):
    config = ec2_config(num_nodes=num_nodes).scaled(
        num_racks=num_racks,
        failure_detection_delay=30.0,
        blockfixer_interval=15.0,
        job_startup=5.0,
        **overrides,
    )
    cluster = HadoopCluster(xorbas_lrc(), config, seed=21)
    for i in range(files):
        cluster.create_file(f"f{i}", 640e6)
    cluster.raid_all_instant()
    return cluster


class TestRackPlacement:
    def test_stripe_spreads_over_all_racks(self):
        cluster = rack_cluster()
        rack_of = cluster.namenode.rack_of
        for stripe in cluster.all_stripes():
            racks_used = {
                rack_of[cluster.namenode.locate(stripe, p)]
                for p in stripe.stored_positions()
            }
            assert len(racks_used) == 4  # every rack carries stripe blocks

    def test_rack_balance_within_stripe(self):
        """16 blocks over 4 racks: exactly 4 blocks per rack."""
        cluster = rack_cluster()
        rack_of = cluster.namenode.rack_of
        for stripe in cluster.all_stripes():
            counts = {}
            for p in stripe.stored_positions():
                rack = rack_of[cluster.namenode.locate(stripe, p)]
                counts[rack] = counts.get(rack, 0) + 1
            assert max(counts.values()) - min(counts.values()) <= 1

    def test_flat_topology_has_no_rack_map(self):
        cluster = rack_cluster(num_racks=1)
        assert cluster.namenode.rack_of == {}


@pytest.fixture(params=[Network, FlowTable], ids=["seed", "flownet"])
def engine(request):
    return request.param


class TestRackNetwork:
    def make_net(self, engine, rack_bw=None):
        sim = Simulation()
        metrics = MetricsCollector(bucket_width=10.0)
        rack_of = {"a": 0, "b": 0, "c": 1, "d": 1}
        net = engine(
            sim, metrics, node_bandwidth=100.0, core_bandwidth=1000.0,
            rack_of=rack_of, rack_bandwidth=rack_bw,
        )
        return sim, net

    def test_intra_rack_flow_bypasses_core(self, engine):
        sim, net = self.make_net(engine, rack_bw=10.0)
        done = []
        net.start_transfer("a", "b", 500.0, lambda: done.append(sim.now))
        sim.run()
        # Same rack: NIC-limited (100 B/s), not uplink-limited (10 B/s).
        assert done == [pytest.approx(5.0)]

    def test_cross_rack_flow_limited_by_uplink(self, engine):
        sim, net = self.make_net(engine, rack_bw=10.0)
        done = []
        net.start_transfer("a", "c", 500.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(50.0)]

    def test_cross_rack_bytes_counted(self, engine):
        sim, net = self.make_net(engine, rack_bw=50.0)
        net.start_transfer("a", "c", 500.0, lambda: None)
        net.start_transfer("a", "b", 300.0, lambda: None)
        sim.run()
        assert net.cross_rack_bytes == pytest.approx(500.0)

    def test_uplink_shared_between_cross_rack_flows(self, engine):
        sim, net = self.make_net(engine, rack_bw=10.0)
        done = []
        net.start_transfer("a", "c", 100.0, lambda: done.append(sim.now))
        net.start_transfer("b", "d", 100.0, lambda: done.append(sim.now))
        sim.run()
        # Both flows leave rack 0 through its 10 B/s uplink: 5 B/s each.
        assert all(t == pytest.approx(20.0) for t in done)

    def test_invalid_rack_bandwidth(self, engine):
        sim = Simulation()
        metrics = MetricsCollector()
        with pytest.raises(ValueError):
            engine(sim, metrics, 1.0, 1.0, rack_of={"a": 0}, rack_bandwidth=0.0)


class TestRackRepairTraffic:
    def test_repairs_are_cross_rack(self):
        """With stripes spread over racks, repair downloads cross racks —
        the Section 4 premise for the gamma bandwidth cap."""
        cluster = rack_cluster(rack_bandwidth=30e6)
        fixer = BlockFixer(cluster)
        fixer.start()
        FailureInjector(cluster, np.random.default_rng(0)).kill(1)
        run_until_quiescent(cluster, fixer)
        assert cluster.fsck()["missing_blocks"] == 0
        # Most repair reads crossed racks (sources spread over 4 racks,
        # at most ~1/4 of reads can be rack-local to the executor).
        assert cluster.network.cross_rack_bytes >= 0.5 * cluster.metrics.hdfs_bytes_read

    def test_rack_uplink_slows_repair(self):
        fast = rack_cluster(rack_bandwidth=None)
        slow = rack_cluster(rack_bandwidth=6e6)
        durations = {}
        for name, cluster in (("fast", fast), ("slow", slow)):
            from repro.cluster import FailureEventRecord

            fixer = BlockFixer(cluster)
            fixer.start()
            record = cluster.metrics.begin_event(
                FailureEventRecord("e", 1, cluster.sim.now)
            )
            FailureInjector(cluster, np.random.default_rng(0)).kill(1)
            run_until_quiescent(cluster, fixer)
            cluster.metrics.end_event()
            durations[name] = record.repair_duration
        assert durations["slow"] > durations["fast"]
