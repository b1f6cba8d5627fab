"""Spec-vs-engine comparison at scale: verify identity, record the ratio.

Each spec/engine benchmark runs both implementations once on the same
workload and checks their outputs still agree *before anything is
recorded* (a fast benchmark that computes the wrong answer is worse
than a slow one), then emits machine-readable metrics
(``{name}_spec_seconds``, ``{name}_engine_seconds``,
``{name}_speedup``) for the session's ``BENCH_results.json``.  Nothing
here asserts anything about time: a spec/engine ratio moves when the
oracle gets faster and when the box is busy, so whether the code got
slower is decided by ``e2ebench`` alone (absolute wall time per
workload against committed bounds, parent-vs-change pairs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["BenchRecord", "compare_speed", "timed"]


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``fn`` once under ``perf_counter``; return (result, seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@dataclass(frozen=True)
class BenchRecord:
    """One spec-vs-engine timing, as appended to BENCH_results.json."""

    name: str
    spec_seconds: float
    engine_seconds: float

    @property
    def speedup(self) -> float:
        return self.spec_seconds / max(self.engine_seconds, 1e-12)

    def metrics(self) -> dict[str, float]:
        return {
            f"{self.name}_spec_seconds": round(self.spec_seconds, 4),
            f"{self.name}_engine_seconds": round(self.engine_seconds, 4),
            f"{self.name}_speedup": round(self.speedup, 2),
        }


def compare_speed(
    name: str,
    spec_fn: Callable[[], Any],
    engine_fn: Callable[[], Any],
    *,
    compare: Callable[[Any, Any], None] | None = None,
    metrics: Callable[[str, float], None] | None = None,
    report: Callable[[str], None] | None = None,
) -> BenchRecord:
    """Time both implementations once, verify agreement, record the ratio.

    The engine runs first, then the spec.  ``compare(spec_result,
    engine_result)`` runs before ``metrics`` or ``report`` see anything,
    so a mismatch leaves no record behind; ``metrics`` then receives
    each record entry (wire it to the benchmark session's
    ``record_metric``) and ``report`` a one-line human summary.
    """
    engine_result, engine_seconds = timed(engine_fn)
    spec_result, spec_seconds = timed(spec_fn)
    if compare is not None:
        compare(spec_result, engine_result)
    record = BenchRecord(
        name=name, spec_seconds=spec_seconds, engine_seconds=engine_seconds
    )
    if metrics is not None:
        for key, value in record.metrics().items():
            metrics(key, value)
    if report is not None:
        report(
            f"{name}: spec {spec_seconds:.3f}s, engine {engine_seconds:.3f}s "
            f"-> {record.speedup:.1f}x"
        )
    return record
