"""Differential-testing framework for spec/engine pairs.

Five PRs hand-rolled the same architecture — keep the scalar seed
implementation as the executable *spec*, make a vectorized numpy
*engine* the one production implementation, and prove element-identical
outputs on shared schedules, in tests and again at scale in
``benchmarks/`` (Monte Carlo, codec, BlockIndex, FlowTable,
ReadService).  This package is that architecture extracted.  A
subsystem gets an engine only where an end-to-end measurement shows
its seed code dominating; the control-plane daemons (FairScheduler
pass, RaidNode scan, scrubber, decommission planner) measured well
under 1 % of any workload and run their seed code alone.  The parts:

* :mod:`~repro.difftest.schedule` — the :class:`Schedule` protocol and
  :class:`ArraySchedule` base generalizing PR 5's ``ReadSchedule``:
  pull all of a subsystem's randomness into plain arrays once, feed the
  identical arrays to both implementations.
* :mod:`~repro.difftest.registry` — the spec/engine registry: every
  subsystem's oracle and engine declared once, read by reprolint and
  the README table.  The oracles themselves live in
  ``repro.spec``.
* :mod:`~repro.difftest.compare` — the element-identical assertion
  helpers (exact counts, bit-identical float lists, NaN-aware stats)
  previously copy-pasted across the per-subsystem test files.
* :mod:`~repro.difftest.bench` — ``compare_speed``: run spec and engine
  once on a shared workload, verify the outputs agree, then record both
  times and their ratio for ``BENCH_results.json``.  It asserts nothing
  about time; ``e2ebench`` alone decides whether anything got slower.
"""

from .bench import BenchRecord, compare_speed, timed
from .compare import (
    DifferentialMismatch,
    assert_bit_identical,
    assert_element_identical,
    assert_exact_counts,
    assert_stats_close,
)
from .pairs import engine_matrix
from .registry import EnginePair
from .schedule import (
    ArraySchedule,
    Schedule,
    require_nonnegative,
    require_sorted,
    spawn_streams,
)

__all__ = [
    "ArraySchedule",
    "BenchRecord",
    "DifferentialMismatch",
    "EnginePair",
    "Schedule",
    "assert_bit_identical",
    "assert_element_identical",
    "assert_exact_counts",
    "assert_stats_close",
    "compare_speed",
    "engine_matrix",
    "require_nonnegative",
    "require_sorted",
    "spawn_streams",
    "timed",
]
