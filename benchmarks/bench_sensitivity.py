"""Reliability sensitivity sweeps and the archival stripe experiment.

Two ablations around Table 1 (the gamma and MTTF sweeps, confirming the
LRC advantage is not knife-edge) plus the Section 7 archival sweep
(RS repair traffic linear in the stripe size, LRC flat at the group
size) and the Gillespie cross-validation of the analytic MTTDL solver.
"""

import numpy as np
import pytest

from repro.experiments.archival import (
    render_archival,
    repair_traffic_ratio,
    run_archival_experiment,
)
from repro.reliability import BirthDeathChain, estimate_mttdl
from repro.reliability.sensitivity import sweep_bandwidth, sweep_node_mttf

from conftest import write_report


def _pivot(points):
    table = {}
    for p in points:
        table.setdefault(p.value, {})[p.scheme] = p.mttdl_days
    return table


@pytest.mark.slow  # ~60 s of sweeps: nightly, not the PR smoke
def test_bandwidth_and_mttf_sweeps(benchmark):
    def run():
        return (
            sweep_bandwidth([0.1, 0.5, 1.0, 5.0, 10.0]),
            sweep_node_mttf([1.0, 2.0, 4.0, 8.0]),
        )

    gamma_points, mttf_points = benchmark(run)
    lines = ["MTTDL (days) vs cross-rack bandwidth gamma (Gb/s):"]
    for value, rows in sorted(_pivot(gamma_points).items()):
        lines.append(
            f"  gamma={value:5.1f}: "
            + "  ".join(f"{s}={rows[s]:.3e}" for s in sorted(rows))
        )
    lines.append("MTTDL (days) vs node MTTF (years):")
    for value, rows in sorted(_pivot(mttf_points).items()):
        lines.append(
            f"  mttf={value:5.1f}: "
            + "  ".join(f"{s}={rows[s]:.3e}" for s in sorted(rows))
        )
    report = "\n".join(lines)
    write_report("sensitivity_sweeps.txt", report)
    print()
    print(report)
    # LRC > RS at every swept point of both sweeps.
    for table in (_pivot(gamma_points), _pivot(mttf_points)):
        for rows in table.values():
            assert rows["LRC (10,6,5)"] > rows["RS (10,4)"] > rows["3-replication"]


def test_archival_stripe_sweep(benchmark):
    rows = benchmark(
        run_archival_experiment,
        stripe_sizes=(10, 20, 50, 100),
        samples=100,
        seed=0,
    )
    report = render_archival(rows)
    ratios = "\n".join(
        f"  k={k}: RS/LRC repair ratio {repair_traffic_ratio(rows, k):.1f}x"
        for k in (10, 20, 50, 100)
    )
    write_report("archival_sweep.txt", report + "\n" + ratios)
    print()
    print(report)
    print(ratios)
    # RS repair reads grow linearly in k; LRC stays pinned at ~r.
    assert repair_traffic_ratio(rows, 10) == pytest.approx(2.0, rel=0.15)
    assert repair_traffic_ratio(rows, 100) == pytest.approx(20.0, rel=0.15)
    # LRC keeps its reliability edge at every stripe size.
    for k in (10, 20, 50, 100):
        rs = next(r for r in rows if r.k == k and r.scheme.startswith("RS"))
        lrc = next(r for r in rows if r.k == k and "LRC" in r.scheme)
        assert lrc.mttdl_days > rs.mttdl_days
    # Archival overheads: the k=100 LRC stores just 25% extra.
    lrc100 = next(r for r in rows if r.k == 100 and "LRC" in r.scheme)
    assert lrc100.storage_overhead == pytest.approx(0.25)


def test_gillespie_validates_markov_solver(benchmark):
    """Simulation agrees with the closed-form MTTDL on a compressed
    chain (the production chain is 10^7x repair-dominant; see module
    docs of repro.reliability.montecarlo)."""
    chain = BirthDeathChain(
        failure_rates=(16.0, 15.0, 14.0, 13.0, 12.0),
        repair_rates=(120.0, 90.0, 60.0, 30.0),
    )
    analytic = chain.mean_time_to_absorption()

    estimate = benchmark.pedantic(
        estimate_mttdl,
        args=(chain,),
        kwargs={"rng": np.random.default_rng(0), "trials": 800},
        iterations=1,
        rounds=1,
    )
    lo, hi = estimate.confidence_interval(z=3.5)
    write_report(
        "gillespie_validation.txt",
        (
            f"analytic MTTDL: {analytic:.4f} s\n"
            f"simulated:      {estimate.mean_seconds:.4f} s "
            f"(+/- {estimate.std_error:.4f}, {estimate.trials} trials)\n"
            f"3.5-sigma interval: [{lo:.4f}, {hi:.4f}]"
        ),
    )
    assert estimate.consistent_with(analytic, z=3.5)
