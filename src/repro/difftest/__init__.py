"""Differential-testing and bench-gating framework for spec/engine pairs.

Five PRs hand-rolled the same architecture — keep the scalar seed
implementation as the executable *spec*, make a vectorized numpy
*engine* the one production implementation, prove element-identical
outputs on shared schedules, and gate a >=10x speedup in CI (Monte
Carlo, codec, BlockIndex, FlowTable, ReadService).  This package is
that architecture extracted, so the remaining scalar daemons cost a few
dozen lines each instead of a PR apiece:

* :mod:`~repro.difftest.schedule` — the :class:`Schedule` protocol and
  :class:`ArraySchedule` base generalizing PR 5's ``ReadSchedule``:
  pull all of a subsystem's randomness into plain arrays once, feed the
  identical arrays to both implementations.
* :mod:`~repro.difftest.registry` — the spec/engine registry: every
  subsystem's oracle, engine and CI gate declared once, read by
  reprolint and the README table.  The oracles themselves live in
  ``repro.spec``.
* :mod:`~repro.difftest.compare` — the element-identical assertion
  helpers (exact counts, bit-identical float lists, NaN-aware stats)
  previously copy-pasted across the per-subsystem test files.
* :mod:`~repro.difftest.bench` — the bench gate: time spec vs engine on
  a shared workload, verify the outputs agree, assert a speedup floor,
  and emit machine-readable metrics for ``BENCH_results.json`` (which
  ``benchmarks/check_bench_regression.py`` holds against the committed
  baseline).
"""

from .bench import BenchRecord, gate_speedup, timed
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
    require_within,
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
    "engine_matrix",
    "gate_speedup",
    "require_nonnegative",
    "require_sorted",
    "require_within",
    "spawn_streams",
    "timed",
]
