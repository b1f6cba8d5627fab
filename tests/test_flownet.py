"""Differential and property tests for the vectorized FlowTable engine.

The reference :class:`~repro.spec.network.Network` is the executable
specification; :class:`~repro.cluster.flownet.FlowTable` must reproduce
its flow *dynamics* — completion/failure callback order and timestamps,
bit for bit — under arbitrary start/abort/complete schedules, and its
metric accumulators to within float re-association (rtol 1e-9).

Also here: the max-min fairness property test (any allocation either
engine produces is feasible and leaves every flow bottlenecked on a
saturated resource) and the full-simulation equivalence test driving
complete EC2 failure schedules through both engines.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FlowTable, MetricsCollector, Simulation, ec2_config
from repro.codes import xorbas_lrc
from repro.experiments.runner import run_failure_schedule
from repro.recovery import snapshot
from repro.spec import Network, with_specs

ENGINES = [Network, FlowTable]


def approx_equal_metrics(a: MetricsCollector, b: MetricsCollector) -> None:
    assert np.isclose(a.hdfs_bytes_read, b.hdfs_bytes_read, rtol=1e-9)
    assert np.isclose(a.network_out_bytes, b.network_out_bytes, rtol=1e-9)
    assert np.isclose(a.bytes_written, b.bytes_written, rtol=1e-9)
    assert sorted(a.disk_read_by_node) == sorted(b.disk_read_by_node)
    for node, total in a.disk_read_by_node.items():
        assert np.isclose(total, b.disk_read_by_node[node], rtol=1e-9)
    assert sorted(a.network_out_by_node) == sorted(b.network_out_by_node)
    for node, total in a.network_out_by_node.items():
        assert np.isclose(total, b.network_out_by_node[node], rtol=1e-9)
    assert np.allclose(
        a.network_series.values(), b.network_series.values(), rtol=1e-9
    )
    assert np.allclose(a.disk_series.values(), b.disk_series.values(), rtol=1e-9)


# ---------------------------------------------------------------------------
# Randomized start/abort/complete schedule differential
# ---------------------------------------------------------------------------


def drive_random_schedule(engine, seed: int, racks: bool):
    rng = np.random.default_rng(seed)
    sim = Simulation()
    metrics = MetricsCollector(bucket_width=7.0)
    nodes = [f"n{i}" for i in range(8)]
    rack_of = {n: i % 3 for i, n in enumerate(nodes)} if racks else None
    net = engine(
        sim,
        metrics,
        100.0,
        250.0,
        rack_of=rack_of,
        rack_bandwidth=180.0 if racks else None,
    )
    log: list[tuple] = []
    flow_id = [0]

    def start_batch(count):
        for _ in range(count):
            i = flow_id[0]
            flow_id[0] += 1
            s, d = rng.choice(8, 2)
            size = float(rng.choice([0.0, 50.0, 100.0, 100.0, 333.3, 1000.0]))
            net.start_transfer(
                nodes[s],
                nodes[d],
                size,
                on_complete=lambda i=i: log.append(("done", i, sim.now)),
                on_fail=lambda i=i: log.append(("fail", i, sim.now)),
                disk_read=bool(rng.integers(2)),
            )

    for t in sorted(rng.uniform(0, 30, 25)):
        sim.schedule(float(t), lambda c=int(rng.integers(1, 8)): start_batch(c))
    for t in rng.uniform(5, 40, 4):
        victim = nodes[int(rng.integers(8))]
        sim.schedule(float(t), lambda v=victim: net.abort_node(v))
    sim.run()
    return log, metrics, net.cross_rack_bytes


@pytest.mark.parametrize("racks", [False, True], ids=["flat", "racked"])
@pytest.mark.parametrize("seed", range(8))
def test_random_schedules_bit_identical_dynamics(seed, racks):
    log_a, metrics_a, xr_a = drive_random_schedule(Network, seed, racks)
    log_b, metrics_b, xr_b = drive_random_schedule(FlowTable, seed, racks)
    # Callback sequence: same events, same order, same exact float times.
    assert log_a == log_b
    assert np.isclose(xr_a, xr_b, rtol=1e-9)
    approx_equal_metrics(metrics_a, metrics_b)


def test_completion_tie_with_admission_in_callback():
    """Two flows tie exactly; the first completion's callback schedules
    a user event and admits a new flow.  The second tied completion must
    keep its position relative to the user event in both engines (the
    FlowTable reallocates synchronously when a flow is due at the
    admission instant, instead of coalescing)."""

    def drive(engine):
        sim = Simulation()
        metrics = MetricsCollector()
        net = engine(sim, metrics, 100.0, 1000.0)
        log = []

        def first_done():
            log.append(("done1", sim.now))
            sim.schedule(0.0, lambda: log.append(("user", sim.now)))
            net.start_transfer(
                "a", "d", 100.0, lambda: log.append(("done3", sim.now))
            )

        net.start_transfer("a", "b", 100.0, first_done)
        net.start_transfer("a", "c", 100.0, lambda: log.append(("done2", sim.now)))
        sim.run()
        return log

    log_seed = drive(Network)
    log_flow = drive(FlowTable)
    assert log_seed == log_flow
    # The admission's reallocation reschedules the tied completion
    # *behind* the already-queued user event — in both engines.
    assert log_seed == [
        ("done1", 2.0),
        ("user", 2.0),
        ("done2", 2.0),
        ("done3", 3.0),
    ]


def test_abort_callback_starting_new_transfers():
    """on_fail handlers that immediately re-issue transfers (retry
    behaviour) must interleave identically in both engines."""

    def drive(engine):
        sim = Simulation()
        metrics = MetricsCollector()
        net = engine(sim, metrics, 100.0, 400.0)
        log = []

        def retry(i):
            log.append(("fail", i, sim.now))
            net.start_transfer(
                "r", f"d{i}", 120.0, lambda: log.append(("retry-done", i, sim.now))
            )

        for i in range(4):
            net.start_transfer(
                "x",
                f"d{i}",
                500.0,
                lambda i=i: log.append(("done", i, sim.now)),
                on_fail=lambda i=i: retry(i),
            )
        net.start_transfer("u", "v", 300.0, lambda: log.append(("uv", sim.now)))
        sim.schedule(2.0, lambda: net.abort_node("x"))
        sim.run()
        return log

    assert drive(Network) == drive(FlowTable)


# ---------------------------------------------------------------------------
# Storm-shaped differential: hundreds of flows admitted at one instant
# ---------------------------------------------------------------------------
#
# drive_random_schedule never holds more than a few dozen flows, so it
# never compacts the table (> 64 rows), never reuses a member CSR across
# hundreds of completions and rarely ties.  These do.


def storm_flows(shape: str) -> tuple[dict, list[tuple[str, str, float]]]:
    """Engine kwargs and the (src, dst, size) burst admitted at t = 0."""
    if shape == "core_bound":
        # 400 equal flows on 20 nodes under a core slower than one NIC:
        # the core is every fill's only bottleneck down to the last
        # flow, and the whole burst is due at the same instant.
        kwargs = dict(node_bandwidth=100.0, core_bandwidth=90.0)
        flows = [
            (f"n{i % 20}", f"n{(i + 1 + i // 20) % 20}", 100.0) for i in range(400)
        ]
    elif shape == "nic_fan_in":
        # 8 sinks x 30 sources under an idle core: the sink NICs start
        # at exactly equal capacity/count (first-seen tie-break), and
        # fills take several rounds.
        kwargs = dict(node_bandwidth=100.0, core_bandwidth=1e6)
        flows = [
            (f"s{s}", f"k{k}", (100.0, 100.0, 200.0, 400.0)[(s + k) % 4])
            for s in range(30)
            for k in range(8)
        ]
    else:
        assert shape == "racked"
        nodes = [f"n{i}" for i in range(18)]
        kwargs = dict(
            node_bandwidth=100.0,
            core_bandwidth=400.0,
            rack_of={n: i % 3 for i, n in enumerate(nodes)},
            rack_bandwidth=150.0,
        )
        rng = np.random.default_rng(11)
        flows = [
            (nodes[s], nodes[d], float(rng.choice([50.0, 100.0, 100.0, 300.0])))
            for s, d in rng.integers(0, 18, (300, 2))
        ]
    return kwargs, flows


def drive_storm(engine, kwargs: dict, flows, abort_at: float, victim: str):
    """Admit ``flows`` at one instant; every third first-generation
    completion admits a reversed flow from inside its callback (i.e.
    while the rest of its tie group is still due), and ``victim`` dies
    mid-drain."""
    sim = Simulation()
    metrics = MetricsCollector(bucket_width=7.0)
    net = engine(sim, metrics, **kwargs)
    log: list[tuple] = []

    def start(i, src, dst, size):
        def done():
            log.append(("done", i, sim.now))
            if i < len(flows) and i % 3 == 0:
                start(len(flows) + i, dst, src, size / 2)

        net.start_transfer(
            src,
            dst,
            size,
            on_complete=done,
            on_fail=lambda: log.append(("fail", i, sim.now)),
            disk_read=i % 2 == 0,
        )

    for i, flow in enumerate(flows):
        start(i, *flow)
    sim.schedule(abort_at, lambda: net.abort_node(victim))
    sim.run()
    return log, metrics, net


@pytest.mark.parametrize(
    "shape, abort_at, victim",
    [("core_bound", 80.0, "n3"), ("nic_fan_in", 9.0, "k2"), ("racked", 30.0, "n4")],
)
def test_storm_bit_identical_dynamics(shape, abort_at, victim):
    kwargs, flows = storm_flows(shape)
    log_a, metrics_a, net_a = drive_storm(Network, kwargs, flows, abort_at, victim)
    log_b, metrics_b, net_b = drive_storm(FlowTable, kwargs, flows, abort_at, victim)
    assert log_a == log_b
    assert np.isclose(net_a.cross_rack_bytes, net_b.cross_rack_bytes, rtol=1e-9)
    approx_equal_metrics(metrics_a, metrics_b)
    # The schedule really exercised what it is here for.
    times = [entry[2] for entry in log_b]
    assert any(kind == "fail" for kind, _, _ in log_b)
    assert len(times) - len(set(times)) > 50  # same-instant completions
    if shape == "core_bound":
        assert net_b.fill_rounds == net_b.reallocations
    else:
        assert net_b.fill_rounds > net_b.reallocations
        assert 1 <= net_b.csr_builds < net_b.reallocations / 4


#: Each storm example drives both engines through up to 90 flows, so
#: tier-1 runs 15; the ``nightly`` profile (tests/conftest.py) runs its
#: own, wider count.
STORM_EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "nightly"
    else 15
)


@settings(max_examples=STORM_EXAMPLES, deadline=None)
@given(
    num_nodes=st.integers(3, 12),
    num_flows=st.integers(1, 90),
    sizes=st.lists(st.sampled_from([25.0, 50.0, 100.0, 400.0]), min_size=1, max_size=3),
    num_racks=st.sampled_from([0, 2, 3]),
    seed=st.integers(0, 2**16),
    # Quarter seconds land on completion instants (sizes and bandwidths
    # are round), so the abort often ties with a completion.
    abort_at=st.one_of(st.integers(0, 40).map(lambda q: q / 4), st.floats(0, 20)),
)
def test_random_storms_bit_identical_dynamics(
    num_nodes, num_flows, sizes, num_racks, seed, abort_at
):
    nodes = [f"n{i}" for i in range(num_nodes)]
    kwargs = dict(node_bandwidth=100.0, core_bandwidth=250.0)
    if num_racks:
        kwargs.update(
            rack_of={n: i % num_racks for i, n in enumerate(nodes)}, rack_bandwidth=150.0
        )
    rng = np.random.default_rng(seed)
    flows = [
        (nodes[s], nodes[d], float(rng.choice(sizes)))
        for s, d in rng.integers(0, num_nodes, (num_flows, 2))
    ]
    log_a, metrics_a, _ = drive_storm(Network, kwargs, flows, abort_at, "n0")
    log_b, metrics_b, _ = drive_storm(FlowTable, kwargs, flows, abort_at, "n0")
    assert log_a == log_b
    approx_equal_metrics(metrics_a, metrics_b)


# ---------------------------------------------------------------------------
# Same-instant completions: one refill per instant
# ---------------------------------------------------------------------------


def drain(engine, flows, **kwargs):
    """Admit ``flows`` at t = 0 and run until the table is empty."""
    sim = Simulation()
    net = engine(sim, MetricsCollector(), **kwargs)
    log: list[tuple] = []
    for i, (src, dst, size) in enumerate(flows):
        net.start_transfer(src, dst, size, lambda i=i: log.append((i, sim.now)))
    sim.run()
    return log, net


def test_core_bound_tie_drains_in_one_reallocation():
    """N equal flows on distinct NICs under a core slower than one NIC
    finish at one instant.  Every removal leaves the core the only
    bottleneck, so the burst's flush is the only reallocation."""
    N = 200
    flows = [(f"s{i}", f"d{i}", 100.0) for i in range(N)]
    kwargs = dict(node_bandwidth=100.0, core_bandwidth=90.0)
    log, _ = drain(Network, flows, **kwargs)
    log_b, net = drain(FlowTable, flows, **kwargs)
    assert log_b == log
    assert len(log) == N and len({t for _, t in log}) == 1
    assert net.reallocations == 1


def test_refill_that_makes_an_untied_flow_due_is_not_skipped():
    """Flow 0 is one ulp larger than its nine peers: at the shared core
    rate it is due just after their instant.  As they finish the share
    rises, and after the fifth the refill makes flow 0 due at the same
    instant, ahead of the peers still due (it was admitted first)."""
    flows = [("e", "f", float(np.nextafter(100.0, np.inf)))]
    flows += [(f"s{j}", f"d{j}", 100.0) for j in range(9)]
    kwargs = dict(node_bandwidth=100.0, core_bandwidth=90.0)
    log, _ = drain(Network, flows, **kwargs)
    log_b, net = drain(FlowTable, flows, **kwargs)
    assert log_b == log
    assert [i for i, _ in log] == [1, 2, 3, 4, 5, 0, 6, 7, 8, 9]
    assert len({t for _, t in log}) == 1
    assert net.reallocations == 2


def test_racked_tie_storm_refills_where_a_skip_is_unproven():
    """Rack uplinks make many fills multi-round, so some removals at a
    tied instant must refill and others need not."""
    kwargs, flows = storm_flows("racked")
    log, _ = drain(Network, flows, **kwargs)
    log_b, net = drain(FlowTable, flows, **kwargs)
    assert log_b == log
    assert len({t for _, t in log}) < net.reallocations < len(log)


def test_tied_local_residue_completes_one_ulp_later():
    """Both local flows' completions were computed for t = 6.1, but the
    second keeps a rounding residue after the settle at 6.1: refilled
    there, it is due one ulp later.  A tie read from the completion
    times computed before the instant would finish it at 6.1."""

    def drive(engine):
        sim = Simulation()
        net = engine(sim, MetricsCollector(), 1.0, 1000.0)
        log = []
        for i, (t, node, size) in enumerate([(1.0, "a", 5.1), (1.4, "b", 4.7)]):
            sim.schedule(
                t,
                lambda i=i, node=node, size=size: net.start_transfer(
                    node, node, size, lambda: log.append((i, sim.now))
                ),
            )
        sim.run()
        return log

    log = drive(Network)
    assert drive(FlowTable) == log
    assert log == [(0, 6.1), (1, float(np.nextafter(6.1, np.inf)))]


@pytest.mark.parametrize("abort_first", [False, True], ids=["after", "before"])
def test_abort_at_completion_instant_around_admission(abort_first):
    """An abort scheduled for the instant a new flow completes runs after
    the completion if it was scheduled after the admission, and before
    it otherwise — in both engines.  The FlowTable's deferred flush arms
    the sentinel in the admission's queue position, not its own."""

    def drive(engine):
        sim = Simulation()
        net = engine(sim, MetricsCollector(), 100.0, 1000.0)
        log = []
        if abort_first:
            sim.schedule(1.0, lambda: net.abort_node("a"))
        net.start_transfer(
            "a",
            "b",
            100.0,
            lambda: log.append(("done", sim.now)),
            on_fail=lambda: log.append(("fail", sim.now)),
        )
        if not abort_first:
            sim.schedule(1.0, lambda: net.abort_node("a"))
        sim.run()
        return log

    log = drive(Network)
    assert drive(FlowTable) == log
    assert log == [("fail" if abort_first else "done", 1.0)]


# ---------------------------------------------------------------------------
# Max-min fairness property (both engines)
# ---------------------------------------------------------------------------


def flow_resources(src, dst, rack_of, rack_bandwidth):
    """Resource keys for a remote flow — mirrors the engines' topology."""
    resources = [("out", src), ("in", dst)]
    cross = (not rack_of) or rack_of.get(src) != rack_of.get(dst)
    if cross:
        resources.append(("core", None))
        if rack_of and rack_bandwidth is not None:
            resources.append(("rackout", rack_of.get(src)))
            resources.append(("rackin", rack_of.get(dst)))
    return resources


def assert_max_min_fair(flows, node_bw, core_bw, rack_of, rack_bw):
    """``flows``: (src, dst, rate, local) snapshots of every active flow.

    Max-min fairness characterization: the allocation is feasible for
    every resource, and every remote flow crosses at least one
    *saturated* resource (otherwise its rate could be raised without
    hurting anyone, contradicting max-min optimality).
    """
    capacity = {}
    load = {}
    for src, dst, rate, local in flows:
        if local:
            assert rate == pytest.approx(node_bw)
            continue
        for res in flow_resources(src, dst, rack_of, rack_bw):
            kind = res[0]
            cap = (
                core_bw
                if kind == "core"
                else rack_bw
                if kind in ("rackout", "rackin")
                else node_bw
            )
            capacity[res] = cap
            load[res] = load.get(res, 0.0) + rate
    for res, total in load.items():
        assert total <= capacity[res] * (1 + 1e-9), f"{res} oversubscribed"
    for src, dst, rate, local in flows:
        if local:
            continue
        assert rate > 0
        saturated = any(
            load[res] >= capacity[res] * (1 - 1e-9)
            for res in flow_resources(src, dst, rack_of, rack_bw)
        )
        assert saturated, f"flow {src}->{dst} not bottlenecked anywhere"


def snapshot_flows(net):
    if isinstance(net, FlowTable):
        return [
            (src, dst, rate, local)
            for src, dst, _, rate, local in net.current_flows()
        ]
    return [(f.src, f.dst, f.rate, f.local) for f in net.flows]


@pytest.mark.parametrize("engine", ENGINES, ids=["seed", "flownet"])
def test_allocations_are_max_min_fair(engine):
    rng = np.random.default_rng(1234)
    for case in range(25):
        num_nodes = int(rng.integers(3, 12))
        nodes = [f"n{i}" for i in range(num_nodes)]
        num_racks = int(rng.choice([1, 2, 3]))
        rack_of = (
            {n: i % num_racks for i, n in enumerate(nodes)}
            if num_racks > 1
            else None
        )
        rack_bw = float(rng.uniform(50, 400)) if rack_of and rng.integers(2) else None
        node_bw = float(rng.uniform(10, 200))
        core_bw = float(rng.uniform(50, 1000))
        sim = Simulation()
        net = engine(
            sim,
            MetricsCollector(),
            node_bw,
            core_bw,
            rack_of=rack_of,
            rack_bandwidth=rack_bw,
        )
        for _ in range(int(rng.integers(1, 40))):
            s, d = rng.integers(0, num_nodes, 2)
            net.start_transfer(
                nodes[s], nodes[d], float(rng.uniform(1e3, 1e6)), lambda: None
            )
        observed = []
        # Probe after same-instant flushes ran but before any completion
        # (sizes >= 1e3 at <= 1e3 B/s: nothing finishes before t=1e-6).
        sim.schedule(1e-6, lambda: observed.append(snapshot_flows(net)))
        sim.run(until=1e-6)
        while sim.peek_time() is not None and not observed:
            sim.step()
        assert_max_min_fair(
            observed[0], node_bw, core_bw, rack_of or {}, rack_bw
        )


# ---------------------------------------------------------------------------
# Coalescing, sentinel scheduling, table hygiene
# ---------------------------------------------------------------------------


def test_same_instant_admissions_coalesce_to_one_reallocation():
    sim = Simulation()
    net = FlowTable(sim, MetricsCollector(), 100.0, 1000.0)
    done = []
    for i in range(200):
        net.start_transfer(
            f"s{i % 10}", f"d{i % 10}", 500.0, lambda i=i: done.append(i)
        )
    # 200 admissions queued exactly one flush event, no reallocation yet.
    assert net.reallocations == 0
    assert net.admissions_coalesced == 199
    assert sim.pending_count == 1
    sim.run()
    assert len(done) == 200
    # One flush for the whole burst, then one reallocation per completion
    # (the last completion empties the table and skips it): all 200 tie,
    # but the core and the sender NICs tie for the bottleneck, the fills
    # take several rounds, and no refill after a removal can be skipped.
    assert net.reallocations == 200


@pytest.mark.parametrize("core_bound", [True, False], ids=["core", "nic"])
def test_fill_counters_pin_the_incremental_reallocation(core_bound):
    """A drain of F flows is F fills that rebuild nothing: no member CSR
    at all while one resource bottlenecks every flow (one round per
    fill), and one CSR for the whole drain otherwise — completions
    reuse it, only an admission or a compaction drops it."""
    F = 300
    sim = Simulation()
    net = FlowTable(sim, MetricsCollector(), 100.0, 90.0 if core_bound else 1e6)
    done = []
    for i in range(F):
        net.start_transfer(
            f"s{i % 30}", f"d{i % 7}", 100.0 + i, lambda i=i: done.append(i)
        )
    sim.run()
    assert len(done) == F
    assert net.reallocations == F
    if core_bound:
        assert net.fill_rounds == net.reallocations
        assert net.csr_builds == 0
    else:
        assert net.fill_rounds > net.reallocations
        assert net.csr_builds == 1


def test_restore_into_fresh_table_resumes_bit_identically():
    """40 nodes intern 81 resources, more than a fresh table's initial
    per-resource capacity: a table unpickled between two storms keeps
    every per-resource array sized, so the first admission after resume
    stays in bounds and the second storm replays bit-identically."""
    nodes = [f"n{i}" for i in range(40)]

    def storm(sim, net, log, tag):
        rng = np.random.default_rng(3)
        for i, (s, d) in enumerate(rng.integers(0, 40, (200, 2))):
            size = float(rng.choice([50.0, 100.0, 300.0]))
            net.start_transfer(
                nodes[s], nodes[d], size, lambda i=i: log.append((tag, i, sim.now))
            )
        sim.run()

    def run(resume: bool):
        sim = Simulation()
        net = FlowTable(sim, MetricsCollector(), 100.0, 250.0)
        log: list[tuple] = []
        storm(sim, net, log, "first")
        if resume:
            sim, net = pickle.loads(snapshot((sim, net)))
        storm(sim, net, log, "second")
        counters = (
            net._num_resources, net.reallocations, net.settles, net.admissions,
            net.fill_rounds, net.csr_builds, net.metrics.network_out_bytes,
        )
        return log, counters

    log, counters = run(resume=False)
    assert len(log) == 400 and counters[0] == 81
    assert run(resume=True) == (log, counters)


def test_single_sentinel_event_not_per_flow_events():
    """The event queue holds O(1) network events regardless of the flow
    count — the reference engine queues (and cancels) one per flow."""
    sim = Simulation()
    net = FlowTable(sim, MetricsCollector(), 100.0, 1000.0)
    for i in range(500):
        net.start_transfer(f"s{i}", f"d{i}", 1e4, lambda: None)
    sim.step()  # the flush: reallocates and arms the sentinel
    assert net.active_flow_count == 500
    assert sim.pending_count == 1  # the sentinel alone


def test_flow_table_compacts_after_churn():
    sim = Simulation()
    net = FlowTable(sim, MetricsCollector(), 100.0, 1000.0)
    count = [0]

    def chain():
        count[0] += 1
        if count[0] < 300:
            net.start_transfer("a", "b", 10.0, chain)

    net.start_transfer("a", "b", 10.0, chain)
    sim.run()
    assert count[0] == 300
    # Sequential churn of 300 flows must not leave 300 rows behind.
    assert net._n <= 130


def test_zero_byte_handle_reports_done():
    sim = Simulation()
    net = FlowTable(sim, MetricsCollector(), 100.0, 1000.0)
    handle = net.start_transfer("a", "b", 0.0, lambda: None)
    assert not handle.done
    sim.run()
    assert handle.done
    assert net.active_flow_count == 0


# ---------------------------------------------------------------------------
# Full-simulation equivalence
# ---------------------------------------------------------------------------


def run_schedule(label: str, racks: bool):
    config = ec2_config(num_nodes=20)
    if racks:
        config = config.scaled(num_racks=4, rack_bandwidth=40e6)
    return run_failure_schedule(
        label,
        xorbas_lrc(),
        config,
        [640e6] * 3,
        pattern=(1, 2),
        seed=5,
    )


@pytest.mark.parametrize("racks", [False, True], ids=["flat", "racked"])
def test_full_simulation_identical_across_engines(racks):
    """A complete EC2 failure schedule — load, RAID, kill nodes, repair
    to quiescence — produces identical fsck, bit-exact repair timings
    and event orderings, and re-association-level-equal metrics."""
    with with_specs("network"):
        run_seed = run_schedule("seed", racks)
    run_flow = run_schedule("flownet", racks)
    assert isinstance(run_seed.cluster.network, Network)
    assert isinstance(run_flow.cluster.network, FlowTable)
    assert run_seed.cluster.fsck() == run_flow.cluster.fsck()
    # The clocks agree exactly: every repair completed at the same instant.
    assert run_seed.cluster.sim.now == run_flow.cluster.sim.now
    for event_seed, event_flow in zip(run_seed.events, run_flow.events):
        assert event_seed.blocks_lost == event_flow.blocks_lost
        assert event_seed.light_repairs == event_flow.light_repairs
        assert event_seed.heavy_repairs == event_flow.heavy_repairs
        assert event_seed.repair_start == event_flow.repair_start
        assert event_seed.repair_end == event_flow.repair_end
        assert np.isclose(
            event_seed.hdfs_bytes_read, event_flow.hdfs_bytes_read, rtol=1e-9
        )
    approx_equal_metrics(run_seed.metrics, run_flow.metrics)
    assert run_seed.cluster.data_loss_events == run_flow.cluster.data_loss_events
