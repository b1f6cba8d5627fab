"""The batched Monte Carlo engine against the per-trajectory loop.

The batched Gillespie engine exists to make simulation-scale validation
cheap enough for CI.  At 10,000 trials on a representative compressed
chain both it and the per-trajectory reference loop must be
statistically faithful — each estimate within three standard errors of
the closed-form mean time to absorption; both times and their ratio
(``montecarlo_batched_speedup``) are recorded, not gated.

Both engines sample the identical jump-chain law; the speedup comes
solely from replacing per-transition Python bytecode with numpy kernels
over the live-trial axis.
"""

import time

import numpy as np

from repro.reliability import BirthDeathChain, estimate_mttdl
from repro.spec import estimate_mttdl_loop

from conftest import record_metric, write_report

TRIALS = 10_000

#: A paper-shaped five-state chain, rate-compressed so absorption is
#: reachable (repair/failure ratios of ~2-8 instead of ~10^7).
CHAIN = BirthDeathChain(
    failure_rates=(16.0, 15.0, 14.0, 13.0, 12.0),
    repair_rates=(120.0, 90.0, 60.0, 30.0),
)


def test_batched_engine_10x_faster_and_consistent(benchmark):
    analytic = CHAIN.mean_time_to_absorption()

    batched = benchmark.pedantic(
        estimate_mttdl,
        args=(CHAIN,),
        kwargs={"rng": np.random.default_rng(0), "trials": TRIALS},
        iterations=1,
        rounds=1,
    )
    batched_seconds = benchmark.stats.stats.mean

    start = time.perf_counter()
    looped = estimate_mttdl_loop(CHAIN, np.random.default_rng(0), trials=TRIALS)
    loop_seconds = time.perf_counter() - start

    speedup = loop_seconds / batched_seconds
    report = (
        f"analytic MTTA:      {analytic:.4f} s\n"
        f"batched estimate:   {batched.mean_seconds:.4f} "
        f"(+/- {batched.std_error:.4f}, {TRIALS} trials) "
        f"in {batched_seconds:.3f} s\n"
        f"loop estimate:      {looped.mean_seconds:.4f} "
        f"(+/- {looped.std_error:.4f}, {TRIALS} trials) "
        f"in {loop_seconds:.3f} s\n"
        f"speedup:            {speedup:.1f}x"
    )
    write_report("montecarlo_engine.txt", report)
    print()
    print(report)
    record_metric("montecarlo_batched_seconds_10k_trials", batched_seconds)
    record_metric("montecarlo_loop_seconds_10k_trials", loop_seconds)
    record_metric("montecarlo_batched_speedup", speedup)
    record_metric(
        "montecarlo_batched_sigma_distance",
        abs(batched.mean_seconds - analytic) / batched.std_error,
    )

    # Both engines statistically faithful at 10k trials.
    assert batched.consistent_with(analytic, z=3.0)
    assert looped.consistent_with(analytic, z=3.0)


def test_batched_engine_scales_to_wide_chains(benchmark):
    """A deeper chain (more transient states) stays fast: the live-axis
    width shrinks as trajectories absorb, so late steps cost little."""
    chain = BirthDeathChain(
        failure_rates=tuple(float(14 - i) for i in range(10)),
        repair_rates=(15.0,) * 9,
    )
    estimate = benchmark.pedantic(
        estimate_mttdl,
        args=(chain,),
        kwargs={"rng": np.random.default_rng(1), "trials": TRIALS},
        iterations=1,
        rounds=1,
    )
    assert estimate.consistent_with(chain.mean_time_to_absorption(), z=3.5)
    record_metric(
        "montecarlo_wide_chain_seconds_10k_trials", benchmark.stats.stats.mean
    )
