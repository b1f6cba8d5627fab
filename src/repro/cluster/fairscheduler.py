"""FairScheduler assignment planning as one vectorized pass.

The JobTracker's assignment pass is the hottest control-plane loop in
the workload simulations (Fig 7 runs thousands of heartbeats over
hundreds of slots), and the seed implementation re-scans every job for
every free slot — O(slots x jobs) Python-level work per heartbeat (that
greedy loop is kept as the oracle ``repro.spec.daemons.plan_pass_seed``).

The key structural fact: which job wins a slot never depends on *which
node* the slot is on (locality only affects which of the job's tasks is
popped, via ``take_task``).  A whole pass is therefore a pure function
of the per-job counters at heartbeat time, captured here as a
:class:`SchedulerState`.  A planner returns the sequence of job indices
assigned to the pass's free slots, in slot order, and the differential
test holds engine and oracle element-identical.

Equivalence argument for the engine: each job's successive keys
``((running + m) / weight, submit_time, job_id)`` for m = 0, 1, ... are
strictly increasing, so the greedy "pick the global minimum, advance
that job" loop is exactly a k-way merge of sorted sequences — i.e. the
globally sorted order of all candidate keys.  The engine materializes
min(pending, slots) keys per job, lexsorts once, and takes the first
``slots`` entries.  The ratio arithmetic is the identical IEEE
operation in both (int64 -> float64 division by a float64 weight).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.difftest import ArraySchedule, require_nonnegative

if TYPE_CHECKING:
    from .mapreduce import MapReduceJob

__all__ = [
    "SchedulerState",
    "plan_pass_vectorized",
]


@dataclass(frozen=True)
class SchedulerState(ArraySchedule):
    """One heartbeat's scheduling inputs, frozen as arrays.

    One row per schedulable job (ready and has pending tasks), plus the
    number of free slots the pass will fill.  This is the complete
    input of a pass: both planners are pure functions of it.
    """

    total_slots: int
    running: np.ndarray  # int64: tasks currently running, per job
    pending: np.ndarray  # int64: tasks waiting, per job
    weight: np.ndarray  # float64: FairScheduler weight, per job
    submit_time: np.ndarray  # float64: submission order tiebreak
    job_id: np.ndarray  # int64: unique, final tiebreak

    @classmethod
    def from_jobs(
        cls, jobs: "list[MapReduceJob]", total_slots: int
    ) -> "SchedulerState":
        return cls(
            total_slots=int(total_slots),
            running=np.array([len(j.running) for j in jobs], dtype=np.int64),
            pending=np.array([len(j.pending) for j in jobs], dtype=np.int64),
            weight=np.array([j.weight for j in jobs], dtype=np.float64),
            submit_time=np.array([j.submit_time for j in jobs], dtype=np.float64),
            job_id=np.array([j.job_id for j in jobs], dtype=np.int64),
        )

    @classmethod
    def draw(
        cls,
        rng: np.random.Generator,
        jobs: int,
        total_slots: int,
        max_pending: int = 50,
    ) -> "SchedulerState":
        """A random but valid state, for the difftest and the bench."""
        return cls(
            total_slots=int(total_slots),
            running=rng.integers(0, 20, size=jobs, dtype=np.int64),
            pending=rng.integers(0, max_pending + 1, size=jobs, dtype=np.int64),
            weight=rng.choice([0.5, 1.0, 1.0, 2.0, 5.0], size=jobs),
            submit_time=np.round(rng.uniform(0.0, 1e4, size=jobs), 1),
            job_id=rng.permutation(jobs).astype(np.int64) + 1,
        )

    def check(self) -> None:
        if self.total_slots < 0:
            raise ValueError("slot count must be non-negative")
        require_nonnegative(self.running, "running counts")
        require_nonnegative(self.pending, "pending counts")
        if self.weight.size and float(np.min(self.weight)) <= 0:
            raise ValueError("job weights must be positive")
        if np.unique(self.job_id).size != self.job_id.size:
            raise ValueError("job ids must be unique")


def plan_pass_vectorized(state: SchedulerState) -> np.ndarray:
    """The engine: one lexsort over every candidate (job, m) key."""
    slots = state.total_slots
    caps = np.minimum(state.pending, slots)
    total = int(caps.sum())
    if slots == 0 or total == 0:
        return np.empty(0, dtype=np.int64)
    job_idx = np.repeat(np.arange(caps.size, dtype=np.int64), caps)
    # m = 0, 1, ... within each job's run of repeated entries.
    starts = np.repeat(np.cumsum(caps) - caps, caps)
    m = np.arange(total, dtype=np.int64) - starts
    ratio = (state.running[job_idx] + m) / state.weight[job_idx]
    order = np.lexsort((state.job_id[job_idx], state.submit_time[job_idx], ratio))
    return job_idx[order[: min(slots, total)]]

