"""The eight spec/engine pairs, declared in one place.

:func:`engine_matrix` is the single source of truth for the README
"Spec/engine pairs" table and reprolint's RL003.

Declarations are metadata only (dotted names).  The
specs under ``repro.spec`` are reachable from tests, ``benchmarks/`` and
this package — no production module imports them; tests run one inside
a live cluster with ``repro.spec.with_specs``.
"""

from __future__ import annotations

from .registry import EnginePair

__all__ = ["PAIRS", "engine_matrix"]

PAIRS = (
    EnginePair(
        "montecarlo",
        spec="repro.spec.montecarlo.simulate_time_to_absorption",
        engine="repro.reliability.montecarlo.simulate_times_to_absorption",
    ),
    EnginePair(
        "codec",
        spec="repro.spec.codec.seed_decode",
        engine="repro.codes.engine.CodecEngine",
    ),
    EnginePair(
        "xorplane",
        spec="repro.spec.xorplane.xor_encode",
        engine="repro.codes.xorplane.XorSchedule",
    ),
    EnginePair(
        "blockindex",
        spec="repro.spec.namenode.DictNameNode",
        engine="repro.cluster.namenode.NameNode",
    ),
    EnginePair(
        "network",
        spec="repro.spec.network.Network",
        engine="repro.cluster.flownet.FlowTable",
    ),
    EnginePair(
        "readservice",
        spec="repro.spec.degraded.DegradedReadSimulation",
        engine="repro.cluster.readservice.ReadServiceEngine",
    ),
    EnginePair(
        "recovery",
        spec="repro.recovery.equivalence.run_uninterrupted",
        engine="repro.recovery.equivalence.run_with_kill_resume",
    ),
    EnginePair(
        "placement",
        spec="repro.spec.placement.place_positions_seed",
        engine="repro.cluster.hdfs.HadoopCluster._place_positions",
    ),
)


def engine_matrix() -> tuple[EnginePair, ...]:
    """Every declared pair, in subsystem order (the docs table)."""
    return tuple(sorted(PAIRS, key=lambda pair: pair.subsystem))
