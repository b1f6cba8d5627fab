"""One-trajectory Gillespie loop: the reference the batched
:func:`repro.reliability.montecarlo.simulate_times_to_absorption` is
validated against (same jump-chain law, different variates per ``rng``).
"""

from __future__ import annotations

import numpy as np

from repro.reliability.markov import BirthDeathChain
from repro.reliability.montecarlo import AbsorptionEstimate

__all__ = ["estimate_mttdl_loop", "simulate_time_to_absorption"]


def simulate_time_to_absorption(
    chain: BirthDeathChain,
    rng: np.random.Generator,
    start: int = 0,
    max_steps: int = 10_000_000,
) -> float:
    """One Gillespie trajectory: seconds from ``start`` to absorption.

    At state i the sojourn is Exp(total rate) and the jump goes up with
    probability ``failure / (failure + repair)``.  Raises RuntimeError
    if absorption has not occurred within ``max_steps`` transitions
    (a sign the chain is too repair-dominant to simulate directly —
    compress it first).
    """
    if not 0 <= start < chain.num_transient:
        raise ValueError(f"start state {start} out of range")
    absorbing = chain.num_transient
    state = start
    clock = 0.0
    for _ in range(max_steps):
        fail = chain.failure_rates[state]
        repair = chain.repair_rates[state - 1] if state > 0 else 0.0
        total = fail + repair
        clock += rng.exponential(1.0 / total)
        if rng.random() < fail / total:
            state += 1
            if state == absorbing:
                return clock
        else:
            state -= 1
    raise RuntimeError(
        f"no absorption within {max_steps} steps; "
        "compress the chain before simulating"
    )


def estimate_mttdl_loop(
    chain: BirthDeathChain,
    rng: np.random.Generator,
    trials: int = 400,
    start: int = 0,
) -> AbsorptionEstimate:
    """``estimate_mttdl`` over ``trials`` one-at-a-time trajectories."""
    times = [
        simulate_time_to_absorption(chain, rng, start=start) for _ in range(trials)
    ]
    return AbsorptionEstimate.from_times(np.array(times))
