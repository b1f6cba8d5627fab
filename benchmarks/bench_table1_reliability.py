"""Table 1: storage overhead, repair traffic and MTTDL for 3-replication,
RS(10,4) and LRC(10,6,5) (Section 4).

The storage-overhead and repair-traffic columns must match the paper
exactly (they are structural).  The MTTDL column uses the Markov model
with first-principles repair rates; the paper's own derivation is
unpublished ("we skip a detailed derivation due to lack of space"), so
absolute values differ for the coded schemes, while the published
*ordering* — replication << RS < LRC — is asserted.  See EXPERIMENTS.md.
"""

import math

import pytest

from repro.experiments import render_table1, table1_comparison
from repro.reliability import ClusterReliabilityParameters, compute_table1

from conftest import write_report


def test_table1_reliability(benchmark):
    comparisons = benchmark(table1_comparison)
    report = render_table1(comparisons)
    write_report("table1_reliability.txt", report)
    print()
    print(report)
    rep, rs, lrc = comparisons
    # Structural columns: exact match with the paper.
    assert [c.storage_overhead for c in comparisons] == [2.0, 0.4, 0.6]
    assert [c.repair_traffic_blocks for c in comparisons] == [1.0, 10.0, 5.0]
    # Replication MTTDL: the pure transfer-time model reproduces the
    # published value within a few percent.
    assert rep.mttdl_days == pytest.approx(rep.paper_mttdl_days, rel=0.05)
    # Ordering and scale relations hold as published.
    assert rep.mttdl_days < rs.mttdl_days < lrc.mttdl_days
    assert math.log10(rs.mttdl_days / rep.mttdl_days) > 3
    assert math.log10(lrc.mttdl_days / rs.mttdl_days) > 0.3


@pytest.mark.slow  # ~30 s ablation: nightly, not the PR smoke
def test_table1_repair_epoch_sensitivity(benchmark):
    """Ablation: a fixed per-repair latency compresses coded-scheme MTTDL
    toward (and past) the published values — evidence the paper's
    unpublished repair model included such a term."""

    def sweep():
        rows = {}
        for epoch in (0.0, 60.0, 240.0, 900.0):
            params = ClusterReliabilityParameters().with_repair_epoch(epoch)
            rows[epoch] = [r.mttdl_days for r in compute_table1(params)]
        return rows

    rows = benchmark(sweep)
    lines = ["Ablation: repair_epoch (s) vs MTTDL (days) [rep, RS, LRC]"]
    for epoch, values in rows.items():
        lines.append(
            f"  epoch={epoch:6.0f}: " + "  ".join(f"{v:.3e}" for v in values)
        )
    report = "\n".join(lines)
    write_report("table1_epoch_ablation.txt", report)
    print()
    print(report)
    for scheme_index in range(3):
        mttdls = [rows[e][scheme_index] for e in sorted(rows)]
        assert mttdls == sorted(mttdls, reverse=True)  # slower repair -> worse
