"""Monte-Carlo validation of the Markov MTTDL solver.

The Section 4 analysis leans entirely on the analytic mean-time-to-
absorption of a birth-death chain.  This module cross-checks that
machinery by *simulating* the same chain with the Gillespie algorithm
(exact stochastic simulation: exponential waiting times, probabilistic
branching) and comparing the empirical mean absorption time with the
closed form.

:func:`simulate_times_to_absorption` is the batched engine.  All
trajectories advance *simultaneously*: each synchronous step samples
one sojourn and one jump direction per live trajectory as a single
vectorized draw, and trajectories that hit the absorbing state retire
from the live axis.  The Python-level loop runs once per transition
*depth* instead of once per transition, so ten thousand trials cost
barely more interpreter time than one.  The original one-trajectory
scalar loop is kept as the oracle
``repro.spec.montecarlo.simulate_time_to_absorption``.

At the paper's actual operating point the stripe MTTDL is ~10^13 days
while individual transitions occur on hour timescales, so simulating a
production chain to absorption would take ~10^14 steps — this is
precisely why the literature (and the paper) use Markov models rather
than simulation for MTTDL.  The validation therefore runs on *rate-
compressed* chains (repair/failure ratios of 10-100), where absorption
happens within thousands of steps and the analytic solver can be
checked to statistical precision; correctness there transfers to the
production regime because the solver is exact for every rate choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import BirthDeathChain

__all__ = [
    "AbsorptionEstimate",
    "simulate_times_to_absorption",
    "estimate_mttdl",
    "compress_chain",
]


def simulate_times_to_absorption(
    chain: BirthDeathChain,
    rng: np.random.Generator,
    trials: int,
    start: int = 0,
    max_steps: int = 10_000_000,
) -> np.ndarray:
    """Batched Gillespie: absorption times of ``trials`` trajectories.

    Every trajectory is advanced in lockstep.  A step gathers the rates
    of each live trajectory's current state, draws all sojourns and all
    jump directions at once, and retires the trajectories that reached
    the absorbing state; the loop ends when the live axis is empty.
    Statistically identical to running the scalar oracle
    ``simulate_time_to_absorption`` ``trials`` times (both sample
    the exact jump-chain law), but the per-transition work is a handful
    of numpy kernels over the live axis instead of Python bytecode.

    ``max_steps`` bounds the transition count of any single trajectory;
    exceeding it raises RuntimeError exactly like the scalar engine
    (the signature of a repair-dominant chain — compress it first).
    """
    if not 0 <= start < chain.num_transient:
        raise ValueError(f"start state {start} out of range")
    if trials < 1:
        raise ValueError("need at least one trial")
    absorbing = chain.num_transient
    # Per-state rate tables, indexed by current state.
    fail = np.asarray(chain.failure_rates, dtype=np.float64)
    repair = np.concatenate(([0.0], np.asarray(chain.repair_rates, dtype=np.float64)))
    total = fail + repair
    up_probability = fail / total

    state = np.full(trials, start, dtype=np.int64)
    clock = np.zeros(trials, dtype=np.float64)
    live = np.arange(trials)
    for _ in range(max_steps):
        here = state[live]
        clock[live] += rng.exponential(size=live.size) / total[here]
        up = rng.random(live.size) < up_probability[here]
        state[live] = here + np.where(up, 1, -1)
        absorbed = state[live] == absorbing
        if absorbed.any():
            live = live[~absorbed]
            if live.size == 0:
                return clock
    raise RuntimeError(
        f"{live.size} of {trials} trajectories not absorbed within "
        f"{max_steps} steps; compress the chain before simulating"
    )


@dataclass(frozen=True)
class AbsorptionEstimate:
    """Empirical mean time to absorption with its standard error."""

    mean_seconds: float
    std_error: float
    trials: int

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        half = z * self.std_error
        return (self.mean_seconds - half, self.mean_seconds + half)

    def consistent_with(self, analytic_seconds: float, z: float = 3.0) -> bool:
        """Whether the analytic value lies within z standard errors."""
        return abs(analytic_seconds - self.mean_seconds) <= z * self.std_error

    @classmethod
    def from_times(cls, times: np.ndarray) -> "AbsorptionEstimate":
        """The estimate over one absorption time per trajectory."""
        trials = int(times.size)
        if trials < 2:
            raise ValueError("need at least two trials for a standard error")
        return cls(
            mean_seconds=float(times.mean()),
            std_error=float(times.std(ddof=1) / math.sqrt(trials)),
            trials=trials,
        )


def estimate_mttdl(
    chain: BirthDeathChain,
    rng: np.random.Generator | None = None,
    trials: int = 400,
    start: int = 0,
    seed: int = 0,
) -> AbsorptionEstimate:
    """Empirical MTTDL of a stripe chain over independent trajectories.

    Pass ``rng`` to share a stream, or ``seed`` to derive a fresh one
    reproducibly.
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    return AbsorptionEstimate.from_times(
        simulate_times_to_absorption(chain, rng, trials, start=start)
    )


def compress_chain(chain: BirthDeathChain, repair_scale: float) -> BirthDeathChain:
    """Scale all repair rates by ``repair_scale`` (< 1 to compress).

    Keeps the failure rates intact, so absorption becomes reachable in
    simulation while the chain retains its structure.  Used to validate
    the analytic solver in regimes where simulation is feasible.
    """
    if repair_scale <= 0:
        raise ValueError("repair_scale must be positive")
    return BirthDeathChain(
        failure_rates=chain.failure_rates,
        repair_rates=tuple(r * repair_scale for r in chain.repair_rates),
    )
