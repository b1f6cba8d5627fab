"""Self-tests for the differential harness (repro.difftest).

The harness is only useful if it fails loudly when spec and engine
diverge, so most of these tests feed it deliberately perturbed
"engines" — an off-by-one counter, a jittered float, a NaN where the
spec has 0 — and assert the mismatch is caught.
"""

import ast
import dataclasses
import inspect
import pkgutil
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.difftest import (
    ArraySchedule,
    BenchRecord,
    DifferentialMismatch,
    EnginePair,
    Schedule,
    assert_bit_identical,
    assert_element_identical,
    assert_exact_counts,
    assert_stats_close,
    compare_speed,
    engine_matrix,
    require_nonnegative,
    require_sorted,
    spawn_streams,
    timed,
)


class TestCompareHelpers:
    def test_exact_counts_pass_and_catch_off_by_one(self):
        spec = {"total": 100, "failed": 3}
        assert_exact_counts(spec, {"total": 100, "failed": 3}, ["total", "failed"])
        with pytest.raises(DifferentialMismatch, match="failed"):
            assert_exact_counts(spec, {"total": 100, "failed": 4}, ["total", "failed"])

    def test_exact_counts_missing_field(self):
        with pytest.raises(DifferentialMismatch, match="missing field"):
            assert_exact_counts({"total": 1}, {}, ["total"])

    def test_bit_identical_catches_float_jitter(self):
        spec = np.array([0.1, 0.2, 0.3])
        assert_bit_identical(spec, spec.copy())
        jittered = spec.copy()
        jittered[1] += 1e-16  # sub-rtol jitter: still a divergence
        with pytest.raises(DifferentialMismatch, match="index 1"):
            assert_bit_identical(spec, jittered, what="latencies")

    def test_bit_identical_nan_equals_nan_but_not_zero(self):
        spec = np.array([1.0, np.nan, 3.0])
        assert_bit_identical(spec, np.array([1.0, np.nan, 3.0]))
        with pytest.raises(DifferentialMismatch):
            assert_bit_identical(spec, np.array([1.0, 0.0, 3.0]))

    def test_bit_identical_shape_and_order(self):
        with pytest.raises(DifferentialMismatch, match="shape"):
            assert_bit_identical([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DifferentialMismatch):
            assert_bit_identical([1.0, 2.0], [2.0, 1.0])  # permutation diverges

    def test_stats_close_nan_aware(self):
        spec = {"mean": 2.0, "p99": float("nan")}
        assert_stats_close(spec, {"mean": 2.0 * (1 + 1e-12), "p99": float("nan")},
                           ["mean", "p99"])
        with pytest.raises(DifferentialMismatch, match="p99"):
            assert_stats_close(spec, {"mean": 2.0, "p99": 0.0}, ["mean", "p99"])
        with pytest.raises(DifferentialMismatch, match="mean"):
            assert_stats_close(spec, {"mean": 2.1, "p99": float("nan")},
                               ["mean", "p99"])

    def test_element_identical_combined_contract(self):
        class Stats:
            total = 5
            latencies = [1.0, 2.0]
            mean = 1.5

        spec, engine = Stats(), Stats()
        assert_element_identical(
            spec, engine, counts=["total"], lists=["latencies"], stats=["mean"]
        )
        engine.total = 6
        with pytest.raises(DifferentialMismatch):
            assert_element_identical(spec, engine, counts=["total"])


class TestScheduleProtocol:
    def test_array_schedule_arrays_and_equality(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Sched(ArraySchedule):
            a: np.ndarray
            b: np.ndarray
            tag: int

        s1 = Sched(np.arange(3), np.ones(2), tag=7)
        assert set(s1.arrays()) == {"a", "b"}
        assert s1.total_rows == 5
        assert isinstance(s1, Schedule)
        assert s1.same_as(Sched(np.arange(3), np.ones(2), tag=9))
        assert not s1.same_as(Sched(np.arange(3), np.zeros(2), tag=7))

    def test_require_helpers(self):
        require_sorted(np.array([0.0, 1.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="time order"):
            require_sorted(np.array([1.0, 0.5]), "read arrivals")
        require_nonnegative(np.array([0.0, 3.0, np.inf]), "starts")
        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError, match="non-negative"):
                require_nonnegative(np.array([1.0, bad]), "starts")

    def test_spawn_streams_stable_and_independent(self):
        a = spawn_streams(42, 3)
        b = spawn_streams(42, 3)
        assert len(a) == 3
        for sa, sb in zip(a, b):
            ra = np.random.default_rng(sa).random(4)
            rb = np.random.default_rng(sb).random(4)
            np.testing.assert_array_equal(ra, rb)
        # Distinct children draw distinct streams.
        r0 = np.random.default_rng(a[0]).random(4)
        r1 = np.random.default_rng(a[1]).random(4)
        assert not np.array_equal(r0, r1)


class TestRegistry:
    def test_all_eight_pairs_registered(self):
        subsystems = {pair.subsystem for pair in engine_matrix()}
        assert subsystems == {
            "montecarlo",
            "codec",
            "xorplane",
            "blockindex",
            "network",
            "readservice",
            "placement",
            "recovery",
        }
        assert [f.name for f in dataclasses.fields(EnginePair)] == [
            "subsystem",
            "spec",
            "engine",
        ]
        for pair in engine_matrix():
            assert pair.spec != pair.engine
            assert callable(pkgutil.resolve_name(pair.spec)), pair.spec
            assert callable(pkgutil.resolve_name(pair.engine)), pair.engine


class TestSpecBoundary:
    def test_specs_are_test_only_oracles(self):
        """No production module imports ``repro.spec`` and no config field
        selects an implementation: the oracles are reachable only from
        tests, ``benchmarks/`` and ``repro.difftest``."""
        src = Path(__file__).resolve().parents[1] / "src"
        offenders = []
        for path in sorted((src / "repro").rglob("*.py")):
            # The containing package anchors relative imports (for both
            # ``pkg/mod.py`` and ``pkg/__init__.py``).
            package = list(path.relative_to(src).parts[:-1])
            if package[:2] in (["repro", "spec"], ["repro", "difftest"]):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = package[: len(package) - node.level + 1] if node.level else []
                    module = ".".join(base + ([node.module] if node.module else []))
                    targets = [module] + [f"{module}.{a.name}" for a in node.names]
                else:
                    continue
                if any(t == "repro.spec" or t.startswith("repro.spec.") for t in targets):
                    offenders.append(f"{path.relative_to(src)}:{node.lineno}")
        assert offenders == []
        selectors = [
            f.name for f in dataclasses.fields(ClusterConfig) if f.name.endswith("_engine")
        ]
        assert selectors == []

    def test_every_registered_spec_lives_with_the_oracles(self):
        """Every pair's spec resolves under ``repro.spec`` (or the
        recovery plane's equivalence module, whose spec is the
        uninterrupted production run itself), with no exception."""
        elsewhere = [
            pair.spec
            for pair in engine_matrix()
            if not pair.spec.startswith(("repro.spec.", "repro.recovery.equivalence."))
        ]
        assert elsewhere == []

    def test_with_specs_swaps_only_the_cluster_bindings(self):
        """The control-plane daemons run their seed code alone: only the
        fabric, the metadata plane and placement have a spec to swap."""
        from repro.spec import _SPEC_BINDINGS, with_specs

        assert set(_SPEC_BINDINGS) == {"network", "namenode", "placement"}
        for name in ("mapreduce", "raidnode", "scrubber", "decommission"):
            with pytest.raises(ValueError, match="no swappable spec"):
                with with_specs(name):
                    pass

    def test_one_pattern_representation_no_bridges(self):
        """An erasure pattern is an int bitmask end to end: decommission
        plans from bitmasks (no set-based ``_plan_one``), and the
        set-interning bridges and the planner's cache-size knob are
        gone."""
        import repro.cluster.decommission as decommission
        from repro.cluster import BlockIndex, HadoopCluster
        from repro.codes import RepairPlanner

        assert not hasattr(decommission, "_plan_one")
        for name in ("interned_positions", "_queue_wide"):
            assert not hasattr(BlockIndex, name)
        assert not hasattr(HadoopCluster, "usable_positions")
        assert list(inspect.signature(RepairPlanner.__init__).parameters) == [
            "self",
            "code",
        ]


class TestCompareSpeed:
    def test_timed_returns_result_and_duration(self):
        result, seconds = timed(lambda: 41 + 1)
        assert result == 42
        assert seconds >= 0.0

    def test_bench_record_metrics_shape(self):
        record = BenchRecord(name="demo", spec_seconds=2.00004, engine_seconds=0.3)
        assert record.speedup == pytest.approx(2.00004 / 0.3)
        assert record.metrics() == {
            "demo_spec_seconds": 2.0,
            "demo_engine_seconds": 0.3,
            "demo_speedup": 6.67,
        }

    def test_no_floor_and_no_repeat(self):
        parameters = inspect.signature(compare_speed).parameters
        assert "floor" not in parameters and "repeat" not in parameters
        assert [f.name for f in dataclasses.fields(BenchRecord)] == [
            "name",
            "spec_seconds",
            "engine_seconds",
        ]

    def test_records_after_comparing_each_side_once(self):
        metrics: dict[str, float] = {}
        lines: list[str] = []
        calls: list[str] = []
        record = compare_speed(
            "demo",
            spec_fn=lambda: calls.append("spec") or 7,
            engine_fn=lambda: calls.append("engine") or 7,
            compare=lambda spec, engine: (
                calls.append("compare"),
                assert_exact_counts({"v": spec}, {"v": engine}, ["v"]),
            ),
            metrics=lambda key, value: (
                calls.append("metric"),
                metrics.__setitem__(key, value),
            ),
            report=lines.append,
        )
        assert calls == ["engine", "spec", "compare"] + ["metric"] * 3
        assert metrics == record.metrics()
        assert "demo" in lines[0] and "floor" not in lines[0]

    def test_slower_engine_still_passes(self):
        """No verdict on time: a 1000x-*slower* engine is recorded, not
        rejected — ``e2ebench`` is the one place that decides "slower"."""
        metrics: dict[str, float] = {}
        record = compare_speed(
            "slow",
            spec_fn=lambda: None,
            engine_fn=lambda: time.sleep(0.05),
            metrics=metrics.__setitem__,
        )
        assert record.speedup < 1e-3
        assert metrics["slow_speedup"] == 0.0

    def test_mismatch_records_nothing(self):
        recorded: list[str] = []
        with pytest.raises(DifferentialMismatch):
            compare_speed(
                "wrong",
                spec_fn=lambda: 1,
                engine_fn=lambda: 2,
                compare=lambda s, e: assert_exact_counts(
                    {"v": s}, {"v": e}, ["v"]
                ),
                metrics=lambda key, value: recorded.append(key),
                report=recorded.append,
            )
        assert recorded == []

    def test_pair_benches_assert_no_wall_clock_floor(self):
        """The eight spec/engine benches record their ratio and assert
        nothing about it.  (The paper-figure benches assert *simulated*
        ratios — claims about the paper — and are not in this list.)"""
        bench_dir = Path(__file__).resolve().parents[1] / "benchmarks"
        stems = (
            "blockindex", "codec_engine", "xor_kernels", "network",
            "readservice", "montecarlo_engine", "placement", "recovery",
        )
        floors = []
        for stem in stems:
            path = bench_dir / f"bench_{stem}.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (
                    isinstance(node, ast.Assert)
                    and isinstance(node.test, ast.Compare)
                ):
                    continue
                operands = [node.test.left, *node.test.comparators]
                numeric = any(
                    isinstance(operand, ast.Constant)
                    and isinstance(operand.value, (int, float))
                    for operand in operands
                )
                names = [
                    getattr(n, "id", None) or getattr(n, "attr", "")
                    for operand in operands
                    for n in ast.walk(operand)
                ]
                if numeric and any("speedup" in name for name in names):
                    floors.append(f"{path.name}:{node.lineno}")
        assert floors == []
