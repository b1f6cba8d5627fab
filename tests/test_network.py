"""Tests for the flow-level network model.

Parametrized over both fabric engines — the reference per-flow
``Network`` (the executable specification) and the vectorized
``FlowTable`` — so every behavioural contract here is enforced on both.
"""

import pytest

from repro.cluster import FlowTable, MetricsCollector, Simulation
from repro.spec import Network


@pytest.fixture(params=[Network, FlowTable], ids=["seed", "flownet"])
def engine(request):
    return request.param


def make_network(engine, node_bw=100.0, core_bw=1000.0):
    sim = Simulation()
    metrics = MetricsCollector(bucket_width=10.0)
    return sim, metrics, engine(sim, metrics, node_bw, core_bw)


class TestSingleFlow:
    def test_completion_time_node_limited(self, engine):
        sim, metrics, net = make_network(engine, node_bw=100.0, core_bw=1000.0)
        done = []
        net.start_transfer("a", "b", 500.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(5.0)]

    def test_completion_time_core_limited(self, engine):
        sim, metrics, net = make_network(engine, node_bw=100.0, core_bw=50.0)
        done = []
        net.start_transfer("a", "b", 500.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(10.0)]

    def test_zero_byte_transfer_completes_immediately(self, engine):
        sim, metrics, net = make_network(engine)
        done = []
        net.start_transfer("a", "b", 0.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_negative_size_rejected(self, engine):
        sim, metrics, net = make_network(engine)
        with pytest.raises(ValueError):
            net.start_transfer("a", "b", -1.0, lambda: None)

    def test_local_transfer_skips_network_accounting(self, engine):
        sim, metrics, net = make_network(engine)
        net.start_transfer("a", "a", 500.0, lambda: None, disk_read=True)
        sim.run()
        assert metrics.network_out_bytes == 0.0
        assert metrics.hdfs_bytes_read == pytest.approx(500.0)


class TestFairSharing:
    def test_two_flows_same_source_share_nic(self, engine):
        sim, metrics, net = make_network(engine, node_bw=100.0, core_bw=1000.0)
        done = []
        net.start_transfer("a", "b", 500.0, lambda: done.append(("b", sim.now)))
        net.start_transfer("a", "c", 500.0, lambda: done.append(("c", sim.now)))
        sim.run()
        # Both share a's 100 B/s NIC: 50 B/s each -> 10 s.
        assert done[0][1] == pytest.approx(10.0)
        assert done[1][1] == pytest.approx(10.0)

    def test_disjoint_flows_use_full_nic(self, engine):
        sim, metrics, net = make_network(engine, node_bw=100.0, core_bw=1000.0)
        done = []
        net.start_transfer("a", "b", 500.0, lambda: done.append(sim.now))
        net.start_transfer("c", "d", 500.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(5.0), pytest.approx(5.0)]

    def test_core_saturation_slows_everyone(self, engine):
        sim, metrics, net = make_network(engine, node_bw=100.0, core_bw=100.0)
        done = []
        for i in range(4):
            net.start_transfer(f"s{i}", f"d{i}", 250.0, lambda: done.append(sim.now))
        sim.run()
        # Four flows share the 100 B/s core: 25 B/s each -> 10 s.
        assert all(t == pytest.approx(10.0) for t in done)

    def test_rate_reallocated_when_flow_finishes(self, engine):
        sim, metrics, net = make_network(engine, node_bw=100.0, core_bw=1000.0)
        done = {}
        net.start_transfer("a", "b", 100.0, lambda: done.setdefault("short", sim.now))
        net.start_transfer("a", "c", 500.0, lambda: done.setdefault("long", sim.now))
        sim.run()
        # Share 50/50 until the short one finishes at t=2, then the long
        # flow gets the full NIC: 400 remaining at 100 B/s -> t=6.
        assert done["short"] == pytest.approx(2.0)
        assert done["long"] == pytest.approx(6.0)

    def test_max_min_not_starved_by_bottlenecked_peer(self, engine):
        sim, metrics, net = make_network(engine, node_bw=100.0, core_bw=150.0)
        done = {}
        # Two flows out of a (share its NIC), one independent flow c->d.
        net.start_transfer("a", "b", 250.0, lambda: done.setdefault("ab", sim.now))
        net.start_transfer("a", "e", 250.0, lambda: done.setdefault("ae", sim.now))
        net.start_transfer("c", "d", 500.0, lambda: done.setdefault("cd", sim.now))
        sim.run()
        # Water-filling: a's flows get 50 each (NIC-bound); c->d gets the
        # remaining core capacity, 50 -> later when a's finish it speeds up.
        assert done["ab"] == pytest.approx(5.0)
        assert done["ae"] == pytest.approx(5.0)
        assert done["cd"] < 10.0  # sped up after t=5


class TestByteConservation:
    def test_total_bytes_attributed_exactly(self, engine):
        sim, metrics, net = make_network(engine)
        sizes = [123.0, 456.0, 789.0]
        for i, size in enumerate(sizes):
            net.start_transfer(f"s{i}", "sink", size, lambda: None, disk_read=True)
        sim.run()
        assert metrics.hdfs_bytes_read == pytest.approx(sum(sizes))
        assert metrics.network_out_bytes == pytest.approx(sum(sizes))

    def test_per_node_attribution(self, engine):
        sim, metrics, net = make_network(engine)
        net.start_transfer("a", "b", 100.0, lambda: None, disk_read=True)
        net.start_transfer("c", "b", 300.0, lambda: None, disk_read=True)
        sim.run()
        assert metrics.disk_read_by_node["a"] == pytest.approx(100.0)
        assert metrics.disk_read_by_node["c"] == pytest.approx(300.0)

    def test_timeseries_totals_match_counters(self, engine):
        sim, metrics, net = make_network(engine, node_bw=10.0)
        net.start_transfer("a", "b", 400.0, lambda: None, disk_read=True)
        sim.run()
        assert metrics.disk_series.total() == pytest.approx(400.0)
        assert metrics.network_series.total() == pytest.approx(400.0)
        # 400 bytes at 10 B/s spans 40 s = 4 buckets of width 10.
        values = metrics.disk_series.values()
        assert len(values) == 4
        assert all(v == pytest.approx(100.0) for v in values)


class TestAborts:
    def test_abort_node_fails_flows(self, engine):
        sim, metrics, net = make_network(engine, node_bw=10.0)
        outcome = []
        net.start_transfer(
            "a", "b", 1000.0, lambda: outcome.append("done"),
            on_fail=lambda: outcome.append("fail"),
        )
        sim.schedule(5.0, lambda: net.abort_node("a"))
        sim.run()
        assert outcome == ["fail"]

    def test_abort_keeps_partial_bytes(self, engine):
        sim, metrics, net = make_network(engine, node_bw=10.0)
        net.start_transfer("a", "b", 1000.0, lambda: None, disk_read=True)
        sim.schedule(5.0, lambda: net.abort_node("a"))
        sim.run()
        # 5 s at 10 B/s = 50 bytes read before the node vanished.
        assert metrics.hdfs_bytes_read == pytest.approx(50.0)

    def test_abort_unrelated_node_is_noop(self, engine):
        sim, metrics, net = make_network(engine)
        done = []
        net.start_transfer("a", "b", 100.0, lambda: done.append(1))
        net.abort_node("zzz")
        sim.run()
        assert done == [1]

    def test_surviving_flows_speed_up_after_abort(self, engine):
        sim, metrics, net = make_network(engine, node_bw=100.0, core_bw=100.0)
        done = {}
        net.start_transfer("a", "b", 1000.0, lambda: done.setdefault("ab", sim.now))
        net.start_transfer("c", "d", 500.0, lambda: done.setdefault("cd", sim.now),
                           on_fail=lambda: None)
        sim.schedule(2.0, lambda: net.abort_node("c"))
        sim.run()
        # After the abort, a->b gets the whole core: 1000 bytes total,
        # 100 delivered by t=2 (50 B/s), remaining 900 at 100 B/s.
        assert done["ab"] == pytest.approx(11.0)

    def test_abort_after_completion_does_not_refail(self, engine):
        """A finished flow must leave the per-node index: a later abort
        of its endpoint must not fire its on_fail."""
        sim, metrics, net = make_network(engine)
        outcome = []
        net.start_transfer(
            "a", "b", 100.0, lambda: outcome.append("done"),
            on_fail=lambda: outcome.append("fail"),
        )
        sim.schedule(50.0, lambda: net.abort_node("a"))
        sim.run()
        assert outcome == ["done"]

    def test_reentrant_abort_fires_on_fail_once(self, engine):
        """A victim's on_fail that itself aborts another victim's node
        must not make the outer abort loop re-fail that victim."""
        sim, metrics, net = make_network(engine, node_bw=10.0)
        log = []

        def first_failed():
            log.append("g-fail")
            net.abort_node("y")  # reentrant: also kills flow f below

        net.start_transfer("x", "z", 1e3, lambda: None, on_fail=first_failed)
        net.start_transfer("x", "y", 1e3, lambda: None,
                           on_fail=lambda: log.append("f-fail"))
        sim.schedule(1.0, lambda: net.abort_node("x"))
        sim.run()
        assert log == ["g-fail", "f-fail"]

    def test_handle_done_set_on_completion_and_abort(self, engine):
        sim, metrics, net = make_network(engine, node_bw=10.0)
        completed = net.start_transfer("a", "b", 100.0, lambda: None)
        aborted = net.start_transfer("c", "d", 1e6, lambda: None,
                                     on_fail=lambda: None)
        assert not completed.done and not aborted.done
        sim.schedule(50.0, lambda: net.abort_node("c"))
        sim.run()
        assert completed.done
        assert aborted.done

    def test_abort_fails_victims_in_start_order(self, engine):
        sim, metrics, net = make_network(engine, node_bw=10.0)
        order = []
        net.start_transfer("x", "b", 1e6, lambda: None,
                           on_fail=lambda: order.append("first"))
        net.start_transfer("a", "x", 1e6, lambda: None,
                           on_fail=lambda: order.append("second"))
        net.start_transfer("x", "x", 1e6, lambda: None,
                           on_fail=lambda: order.append("third"))
        sim.schedule(1.0, lambda: net.abort_node("x"))
        sim.run()
        assert order == ["first", "second", "third"]
