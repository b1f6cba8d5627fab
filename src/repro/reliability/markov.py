"""Absorbing birth-death Markov chains for MTTDL analysis (Section 4, Fig 3).

The chain's states count the lost blocks of a single stripe: 0 (healthy)
up to an absorbing data-loss state.  Forward rates are block-failure
rates, backward rates are repair rates.  The mean time to absorption from
state 0 is the stripe MTTDL; dividing by the number of stripes gives the
system MTTDL (equation 3).

Three solvers are provided: the exact birth-death recursion
(:meth:`BirthDeathChain.mean_time_to_absorption`, used everywhere and
stable in the repair-dominant regime the paper operates in), a direct
linear-system solve (cross-validation on well-conditioned chains only),
and the classical product-form approximation (used by tests to
validate the recursion in that regime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["BirthDeathChain", "mttdl_approximation"]

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_YEAR = 365.0 * SECONDS_PER_DAY


@dataclass(frozen=True)
class BirthDeathChain:
    """A birth-death chain with one absorbing end state.

    ``failure_rates[i]`` is the rate from state i to i+1 (i = 0..d-1);
    ``repair_rates[i]`` is the rate from state i+1 back to i
    (i = 0..d-2; the absorbing state has no repair).  All rates are in
    events/second.
    """

    failure_rates: tuple[float, ...]
    repair_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.failure_rates) < 1:
            raise ValueError("need at least one transient state")
        if len(self.repair_rates) != len(self.failure_rates) - 1:
            raise ValueError(
                "repair_rates must have one entry fewer than failure_rates"
            )
        if any(rate <= 0 for rate in self.failure_rates):
            raise ValueError("failure rates must be positive")
        if any(rate < 0 for rate in self.repair_rates):
            raise ValueError("repair rates must be non-negative")

    @property
    def num_transient(self) -> int:
        return len(self.failure_rates)

    def generator_matrix(self) -> np.ndarray:
        """The transient-to-transient block Q of the CTMC generator."""
        d = self.num_transient
        q = np.zeros((d, d))
        for i in range(d):
            out_rate = self.failure_rates[i]
            if i > 0:
                out_rate += self.repair_rates[i - 1]
                q[i, i - 1] = self.repair_rates[i - 1]
            if i + 1 < d:
                q[i, i + 1] = self.failure_rates[i]
            q[i, i] = -out_rate
        return q

    def mean_time_to_absorption(self, start: int = 0) -> float:
        """Exact expected hitting time of the absorbing state, in seconds.

        Uses the closed-form birth-death recursion for the expected time
        ``h_i`` to first reach state i+1 from state i:

            h_0 = 1 / lambda_0
            h_i = (1 + rho_i * h_{i-1}) / lambda_i

        and sums ``h_start + ... + h_{d-1}``.  Every term is positive, so
        the recursion is numerically stable even in the paper's regime
        where repair rates exceed failure rates by ~7 orders of magnitude
        (a direct linear solve of -Q t = 1 loses all precision there).
        """
        if not 0 <= start < self.num_transient:
            raise ValueError(f"start state {start} out of range")
        hop_times: list[float] = []
        for i, lam in enumerate(self.failure_rates):
            if i == 0:
                hop_times.append(1.0 / lam)
            else:
                hop_times.append((1.0 + self.repair_rates[i - 1] * hop_times[-1]) / lam)
        return float(sum(hop_times[start:]))

    def mean_time_to_absorption_linsolve(self, start: int = 0) -> float:
        """Direct solve of ``-Q t = 1``.

        Kept for cross-validation on well-conditioned chains; do not use
        in the repair-dominant regime (see mean_time_to_absorption).
        """
        if not 0 <= start < self.num_transient:
            raise ValueError(f"start state {start} out of range")
        q = self.generator_matrix()
        times = np.linalg.solve(-q, np.ones(self.num_transient))
        return float(times[start])

    def mttdl_days(self, start: int = 0) -> float:
        return self.mean_time_to_absorption(start) / SECONDS_PER_DAY


def mttdl_approximation(
    failure_rates: Sequence[float], repair_rates: Sequence[float]
) -> float:
    """Product-form approximation valid when repairs dominate failures.

    ``MTTDL ~= prod(rho_i) / prod(lambda_i)`` — the first-order term of
    the exact solution when ``rho >> lambda``.  Exposed for validating the
    exact solver and for quick analytical sanity checks.
    """
    numerator = float(np.prod(repair_rates)) if len(repair_rates) else 1.0
    denominator = float(np.prod(failure_rates))
    return numerator / denominator
