"""E22: the vectorized read-service engine against its spec, at scale.

The ROADMAP's north star is "heavy traffic from millions of users", and
the degraded-read availability study was the last scalar hot path in
the simulator: one Python callback per client read caps it around tens
of thousands of reads.  The vectorized
:class:`~repro.cluster.readservice.ReadServiceEngine` replays the whole
schedule as array passes — searchsorted availability checks over merged
per-node outage windows, one planner call per distinct erasure-pattern
bitmask, batched latency accounting.

The comparison: one million client reads over a six-hour horizon (the
paper's (10,6,5) LRC under the default transient-outage process) run
through the engine and through the event-driven spec
(:class:`~repro.spec.degraded.DegradedReadSimulation`) on one pre-drawn
schedule (the one both would draw from the seed, drawn once) must give
element-identical ``ReadServiceStats`` — counts exact, per-read latency
arrays equal, aggregate latencies asserted to 1e-9.  Both times and
their ratio (``readservice_speedup``) are recorded, not gated.
"""

import time

import numpy as np

from repro.cluster.degraded import DegradedReadConfig
from repro.cluster.readservice import ReadSchedule, ReadServiceEngine
from repro.codes import xorbas_lrc
from repro.spec import DegradedReadSimulation

from conftest import record_metric, write_report

TARGET_READS = 1_000_000
DURATION = 6 * 3600.0
CONFIG = DegradedReadConfig(
    duration=DURATION,
    read_rate=TARGET_READS / DURATION,
    num_stripes=2000,
)
SEED = 11


def aggregates(stats):
    return (
        stats.mean_latency,
        stats.mean_degraded_latency,
        stats.percentile_latency(99),
    )


def test_read_service_engine_10x_faster_and_element_identical():
    code = xorbas_lrc()
    schedule = ReadSchedule.draw(CONFIG, code, SEED)
    assert schedule.num_reads > 0.99 * TARGET_READS

    engine = ReadServiceEngine(code, config=CONFIG, seed=SEED, schedule=schedule)
    start = time.perf_counter()
    engine_stats = engine.run()
    engine_seconds = time.perf_counter() - start

    spec = DegradedReadSimulation(
        code, config=CONFIG, seed=SEED, schedule=schedule
    )
    start = time.perf_counter()
    spec_stats = spec.run()
    spec_seconds = time.perf_counter() - start

    # Element-identical stats on the shared schedule: exact counts,
    # equal per-read latency arrays.
    identical = np.array_equal(engine_stats.latencies, spec_stats.latencies)
    assert engine_stats.total_reads == spec_stats.total_reads
    assert engine_stats.degraded_reads == spec_stats.degraded_reads
    assert engine_stats.failed_reads == spec_stats.failed_reads
    assert engine_stats.timed_out_reads == spec_stats.timed_out_reads
    assert identical
    assert np.array_equal(
        engine_stats.degraded_latencies, spec_stats.degraded_latencies
    )
    # Aggregates to 1e-9 (implied by the lists, asserted for the record).
    np.testing.assert_allclose(
        aggregates(engine_stats), aggregates(spec_stats), rtol=1e-9
    )

    speedup = spec_seconds / engine_seconds
    report = (
        f"{engine_stats.total_reads} client reads over {DURATION / 3600:.0f}h "
        f"({CONFIG.num_stripes} stripes of {code.name} on "
        f"{CONFIG.num_nodes} nodes)\n"
        f"degraded reads: {engine_stats.degraded_reads} "
        f"({engine.distinct_patterns} distinct planner patterns)\n"
        f"event-driven spec:      {spec_seconds:.2f} s\n"
        f"vectorized read engine: {engine_seconds:.2f} s\n"
        f"speedup: {speedup:.1f}x (stats element-identical: {identical})"
    )
    write_report("readservice.txt", report)
    print()
    print(report)
    record_metric("readservice_reads", float(engine_stats.total_reads))
    record_metric("readservice_seed_seconds_1m_reads", spec_seconds)
    record_metric("readservice_engine_seconds_1m_reads", engine_seconds)
    record_metric("readservice_speedup", speedup)
    record_metric(
        "readservice_distinct_patterns", float(engine.distinct_patterns)
    )


def test_scenario_knobs_stay_element_identical_at_scale():
    """A hostile composite scenario — Zipf-hot stripes, diurnal traffic,
    rack-correlated outages — at 200k reads: the engines must still
    agree element for element (this is where failed reads appear)."""
    config = DegradedReadConfig(
        duration=DURATION,
        read_rate=200_000 / DURATION,
        num_stripes=500,
        zipf_exponent=1.2,
        diurnal_amplitude=0.8,
        num_racks=5,
        rack_outage_rate=1.0 / 3600.0,
        rack_outage_duration_mean=1800.0,
    )
    code = xorbas_lrc()
    schedule = ReadSchedule.draw(config, code, 7)
    engine_stats = ReadServiceEngine(
        code, config=config, seed=7, schedule=schedule
    ).run()
    spec_stats = DegradedReadSimulation(
        code, config=config, seed=7, schedule=schedule
    ).run()
    assert engine_stats.failed_reads > 0  # rack storms actually bite
    assert engine_stats.total_reads == spec_stats.total_reads
    assert engine_stats.failed_reads == spec_stats.failed_reads
    assert np.array_equal(engine_stats.latencies, spec_stats.latencies)
    record_metric(
        "readservice_scenario_failed_reads", float(engine_stats.failed_reads)
    )
