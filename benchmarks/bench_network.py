"""E21: the vectorized flow-table network engine against its spec, at scale.

The paper's headline dynamics (Figure 5, Section 5.2.3) come from the
network saturating under repair storms: one node failure spawns
thousands of concurrent repair flows.  The reference per-flow engine
re-settles every flow and cancels/reschedules one heap event per
surviving flow on every start/finish/abort, making event cascades
O(F^2)-O(F^2 log F); at five thousand concurrent flows it is the
slowest layer of the simulator.

The comparison: a repair-storm schedule on a racked 60-node fabric run
through the struct-of-arrays :class:`~repro.cluster.flownet.FlowTable`
and through the reference :class:`~repro.spec.network.Network` must
produce *element-identical* completion records (same flows, same order,
same exact float timestamps) and byte totals equal to float
re-association tolerance; both times and their ratio
(``network_speedup``) are recorded, not gated.  The seed engine's event
cascades are O(F^2)-O(F^2 log F) in concurrent flows, so the comparison
size sets almost the whole cost of this file: the smoke lane runs 1,500
concurrent flows, and the nightly job repeats the comparison at the
full 5,000-flow scale point the paper's repair storms reach.
"""

import time

import numpy as np
import pytest

from repro.cluster import FlowTable, MetricsCollector, Simulation
from repro.spec import Network

from conftest import record_metric, write_report

NUM_NODES = 60
NUM_RACKS = 6
SMOKE_FLOWS = 1500
FULL_FLOWS = 5000
BURSTS = 25
BLOCK = 64e6


def drive(engine_cls, target_flows):
    """One repair-storm schedule: 25 same-instant admission bursts of
    ``target_flows / 25`` block transfers one second apart (a BlockFixer
    scan launches its whole read set at one instant), then drain."""
    rng = np.random.default_rng(11)
    sim = Simulation()
    metrics = MetricsCollector(bucket_width=300.0)
    nodes = [f"node{i:03d}" for i in range(NUM_NODES)]
    rack_of = {n: i % NUM_RACKS for i, n in enumerate(nodes)}
    net = engine_cls(
        sim, metrics, 12e6, 60e6, rack_of=rack_of, rack_bandwidth=30e6
    )
    completions: list[tuple[int, float]] = []
    flow_id = [0]
    per_burst = target_flows // BURSTS

    def burst():
        for _ in range(per_burst):
            i = flow_id[0]
            flow_id[0] += 1
            src, dst = rng.choice(NUM_NODES, 2, replace=False)
            net.start_transfer(
                nodes[src],
                nodes[dst],
                BLOCK,
                lambda i=i: completions.append((i, sim.now)),
                disk_read=True,
            )

    for index in range(BURSTS):
        sim.schedule(index * 1.0, burst)
    peak = [0]
    sim.schedule(BURSTS * 1.0, lambda: peak.__setitem__(0, net.active_flow_count))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return elapsed, completions, metrics, net.cross_rack_bytes, peak[0]


def _compare_engines(target_flows):
    """Run both engines at one scale; assert identity, return timings."""
    flow_seconds, flow_completions, flow_metrics, flow_xr, flow_peak = drive(
        FlowTable, target_flows
    )
    seed_seconds, seed_completions, seed_metrics, seed_xr, seed_peak = drive(
        Network, target_flows
    )

    # Element-identical dynamics: same completion order, exact times.
    assert flow_completions == seed_completions
    assert len(flow_completions) == target_flows
    assert seed_peak == flow_peak
    # The schedule actually reaches repair-storm concurrency.
    assert flow_peak >= 0.9 * target_flows
    # Byte totals agree to float re-association tolerance.
    assert np.isclose(
        flow_metrics.hdfs_bytes_read, seed_metrics.hdfs_bytes_read, rtol=1e-9
    )
    assert np.isclose(
        flow_metrics.network_out_bytes,
        seed_metrics.network_out_bytes,
        rtol=1e-9,
    )
    assert np.isclose(flow_xr, seed_xr, rtol=1e-9)
    assert np.allclose(
        flow_metrics.network_series.values(),
        seed_metrics.network_series.values(),
        rtol=1e-9,
    )
    return flow_seconds, seed_seconds, flow_peak


def test_flow_table_10x_faster_and_element_identical():
    flow_seconds, seed_seconds, flow_peak = _compare_engines(SMOKE_FLOWS)
    speedup = seed_seconds / flow_seconds
    report = (
        f"{SMOKE_FLOWS} flows in {BURSTS} bursts on {NUM_NODES} nodes / "
        f"{NUM_RACKS} racks (rack uplinks capped); peak concurrency "
        f"{flow_peak}\n"
        f"seed per-flow Network: {seed_seconds:.2f} s\n"
        f"vectorized FlowTable:  {flow_seconds:.2f} s\n"
        f"speedup: {speedup:.1f}x (completion records element-identical)"
    )
    write_report("network.txt", report)
    print()
    print(report)
    record_metric("network_flows", float(SMOKE_FLOWS))
    record_metric("network_seed_seconds", seed_seconds)
    record_metric("network_flownet_seconds", flow_seconds)
    record_metric("network_speedup", speedup)


@pytest.mark.slow
def test_flow_table_full_repair_storm_scale_point():
    """Nightly: the full 5k-flow scale point of the paper's repair storms.

    The seed side alone takes ~450 s here (O(F^2) cascades), which is
    why the smoke lane runs the smaller comparison above; the identity
    assertions are the same.
    """
    flow_seconds, seed_seconds, flow_peak = _compare_engines(FULL_FLOWS)
    speedup = seed_seconds / flow_seconds
    print(
        f"\n{FULL_FLOWS} flows (peak {flow_peak}): seed {seed_seconds:.2f} s, "
        f"flow table {flow_seconds:.2f} s -> {speedup:.1f}x"
    )
    record_metric("network_seed_seconds_5k_flows", seed_seconds)
    record_metric("network_flownet_seconds_5k_flows", flow_seconds)
    record_metric("network_speedup_5k_flows", speedup)


def test_coalesced_admission_scales_past_reference_concurrency():
    """10k concurrent flows admitted in one instant — twice the nightly
    scale: the flow table absorbs them with one reallocation and drains
    them in seconds, where the per-flow engine's O(F^2) drain would
    take tens of minutes."""
    rng = np.random.default_rng(3)
    sim = Simulation()
    net = FlowTable(sim, MetricsCollector(bucket_width=300.0), 12e6, 60e6)
    nodes = [f"node{i:03d}" for i in range(NUM_NODES)]
    done = [0]
    for _ in range(10_000):
        src, dst = rng.choice(NUM_NODES, 2, replace=False)
        net.start_transfer(
            nodes[src], nodes[dst], BLOCK, lambda: done.__setitem__(0, done[0] + 1)
        )
    assert net.reallocations == 0  # all 10k admissions coalesced
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert done[0] == 10_000
    record_metric("network_flownet_seconds_10k_drain", elapsed)
    assert elapsed < 60.0
