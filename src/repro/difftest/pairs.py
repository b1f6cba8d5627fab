"""The eleven spec/engine pairs, declared in one place.

:func:`engine_matrix` is the single source of truth for the README
"Spec/engine pairs" table, reprolint's RL002/RL003 and the CI
bench-regression baseline's gated-metric list.

Declarations are metadata only (dotted names and the CI gate).  The
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
        gate="montecarlo_batched_speedup",
    ),
    EnginePair(
        "codec",
        spec="repro.codes.base.ErasureCode.decode",
        engine="repro.codes.engine.CodecEngine",
        gate="codec_engine_speedup",
    ),
    EnginePair(
        "xorplane",
        spec="repro.codes.cauchy.xor_encode",
        engine="repro.codes.xorplane.XorSchedule",
        gate="xor_plane_speedup",
    ),
    EnginePair(
        "blockindex",
        spec="repro.spec.namenode.DictNameNode",
        engine="repro.cluster.namenode.NameNode",
        gate="blockindex_speedup",
    ),
    EnginePair(
        "network",
        spec="repro.spec.network.Network",
        engine="repro.cluster.flownet.FlowTable",
        gate="network_speedup",
    ),
    EnginePair(
        "readservice",
        spec="repro.spec.degraded.DegradedReadSimulation",
        engine="repro.cluster.readservice.ReadServiceEngine",
        gate="readservice_speedup",
    ),
    EnginePair(
        "scrubber",
        spec="repro.cluster.integrity.Scrubber",
        engine="repro.cluster.scrubengine.ScrubEngine",
        gate="scrubber_speedup",
    ),
    EnginePair(
        "decommission",
        spec="repro.spec.daemons.plan_recreates_seed",
        engine="repro.cluster.decommission.plan_recreates_vectorized",
        gate="decommission_speedup",
    ),
    EnginePair(
        "mapreduce",
        spec="repro.spec.daemons.plan_pass_seed",
        engine="repro.cluster.fairscheduler.plan_pass_vectorized",
        gate="fairscheduler_speedup",
    ),
    EnginePair(
        "recovery",
        spec="repro.recovery.equivalence.run_uninterrupted",
        engine="repro.recovery.equivalence.run_with_kill_resume",
        gate="recovery_resume_speedup",
    ),
    EnginePair(
        "raidnode",
        spec="repro.spec.daemons.scan_candidates_seed",
        engine="repro.cluster.raidscan.RaidScanIndex",
        gate="raidnode_speedup",
    ),
)


def engine_matrix() -> tuple[EnginePair, ...]:
    """Every declared pair, in subsystem order (the docs table)."""
    return tuple(sorted(PAIRS, key=lambda pair: pair.subsystem))
