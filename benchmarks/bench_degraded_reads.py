"""Degraded-read availability under transient outages (Section 4 coda).

The paper closes its reliability section observing that LRCs "will have
higher availability due to these faster degraded reads" and defers the
study; this bench runs it.  All three schemes see the identical outage
process and read arrivals (paired-seed discipline, like the paper's
twin EC2 clusters); the LRC serves degraded reads ~2x faster than RS
and recovers most of the availability gap to replication.  The rows
come from the production ``ReadServiceEngine``, the same implementation
``repro degraded`` and ``run_degraded_scenarios`` run.
"""

import pytest

from repro.cluster.degraded import DegradedReadConfig, compare_degraded_reads
from repro.codes import rs_10_4, three_replication, xorbas_lrc

from conftest import write_report

CONFIG = DegradedReadConfig(duration=4 * 3600.0)


def test_degraded_read_availability(benchmark):
    codes = [three_replication(), rs_10_4(), xorbas_lrc()]

    results = benchmark.pedantic(
        compare_degraded_reads,
        args=(codes,),
        kwargs={"config": CONFIG, "seed": 3},
        iterations=1,
        rounds=1,
    )
    by_name = {s.scheme: s for s in results}
    lines = ["Degraded reads under transient outages (4h, paired seeds):"]
    for stats in results:
        lines.append(
            f"  {stats.scheme:<16} reads={stats.total_reads} "
            f"degraded={stats.degraded_fraction:.2%} "
            f"mean-degraded={stats.mean_degraded_latency:5.1f}s "
            f"availability={stats.availability:.5f}"
        )
    report = "\n".join(lines)
    write_report("degraded_reads.txt", report)
    print()
    print(report)

    repl = by_name["3-replication"]
    rs = by_name["RS(10,4)"]
    lrc = by_name["LRC(10,6,5)"]
    # Degraded-read latency: replication < LRC < RS, with LRC ~2x faster
    # than RS (5 XOR reads vs 10 for the heavy decode).
    assert repl.mean_degraded_latency < lrc.mean_degraded_latency
    assert 1.5 < rs.mean_degraded_latency / lrc.mean_degraded_latency < 2.5
    # Availability ordering follows (Section 4's closing paragraph).
    assert repl.availability >= lrc.availability > rs.availability
    # The outage process is shared: degraded fractions match closely.
    assert rs.degraded_fraction == pytest.approx(
        lrc.degraded_fraction, abs=0.01
    )
