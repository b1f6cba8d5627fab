"""Sensitivity sweeps around the paper's Table 1 operating point.

Section 4 evaluates one parameter set (N = 3000, C = 30 PB, 1/lambda =
4 years, gamma = 1 Gb/s).  The sweeps here vary each knob: the LRC's
reliability advantage over RS(10,4) persists across repair-bandwidth
and node-MTTF regimes because it derives from the ratio of repair
*reads* (5 vs 10) — but the detection-latency sweep exposes a genuine
crossover (see :func:`sweep_repair_epoch`) once fixed latency, not
transfer time, dominates each repair.

The archival comparison quantifies Section 7's closing argument: with
stripe sizes of 50 or 100 blocks, RS repair traffic grows linearly in
the stripe size while LRC repair cost stays pinned at the group size —
"this would be impractical if Reed-Solomon codes are used".

Large-stripe codes make exhaustive loss-pattern enumeration infeasible,
so :func:`sampled_repair_cost` provides an unbiased sampled estimate of
the same quantity :func:`repro.codes.analysis.repair_cost_summary`
computes exactly for stripe-sized codes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..codes.analysis import RepairCostSummary, _repair_cost
from ..codes.base import ErasureCode
from ..codes.lrc import make_lrc, xorbas_lrc
from ..codes.reed_solomon import ReedSolomonCode, rs_10_4
from ..codes.replication import three_replication
from .markov import SECONDS_PER_YEAR, BirthDeathChain
from .models import ClusterReliabilityParameters, analyze_scheme

__all__ = [
    "SweepPoint",
    "sweep_bandwidth",
    "sweep_node_mttf",
    "sweep_repair_epoch",
    "sampled_repair_cost",
    "ArchivalRow",
    "archival_comparison",
]


@dataclass(frozen=True)
class SweepPoint:
    """One (parameter value, scheme) MTTDL sample."""

    parameter: str
    value: float
    scheme: str
    mttdl_days: float


def _paper_schemes() -> list[tuple[ErasureCode, str]]:
    return [
        (three_replication(), "3-replication"),
        (rs_10_4(), "RS (10,4)"),
        (xorbas_lrc(), "LRC (10,6,5)"),
    ]


def _sweep(
    parameter: str,
    values: list[float],
    make_params,
) -> list[SweepPoint]:
    points = []
    for value in values:
        params = make_params(value)
        for code, name in _paper_schemes():
            result = analyze_scheme(code, params, name=name)
            points.append(
                SweepPoint(
                    parameter=parameter,
                    value=value,
                    scheme=name,
                    mttdl_days=result.mttdl_days,
                )
            )
    return points


def sweep_bandwidth(
    gammas_gbps: list[float],
    base: ClusterReliabilityParameters | None = None,
) -> list[SweepPoint]:
    """MTTDL versus cross-rack repair bandwidth gamma."""
    base = base or ClusterReliabilityParameters()
    return _sweep(
        "gamma_gbps",
        gammas_gbps,
        lambda g: replace(base, cross_rack_bandwidth=g * 1e9 / 8),
    )


def sweep_node_mttf(
    mttf_years: list[float],
    base: ClusterReliabilityParameters | None = None,
) -> list[SweepPoint]:
    """MTTDL versus mean node lifetime 1/lambda."""
    base = base or ClusterReliabilityParameters()
    return _sweep(
        "mttf_years",
        mttf_years,
        lambda y: replace(base, node_mttf_seconds=y * SECONDS_PER_YEAR),
    )


def sweep_repair_epoch(
    epochs_seconds: list[float],
    base: ClusterReliabilityParameters | None = None,
) -> list[SweepPoint]:
    """MTTDL versus the fixed per-repair latency (detection + dispatch).

    This is the knob the paper's missing derivation hides, and sweeping
    it exposes a crossover the paper does not discuss: the LRC's
    reliability advantage comes entirely from *faster transfers*
    (5 vs 10 block reads, seconds at gamma = 1 Gb/s), so once a fixed
    latency much larger than the transfer time dominates every repair,
    the advantage vanishes and RS(10,4) — two fewer blocks exposed to
    failure per stripe — pulls ahead.  Table 1's "two more zeros" is a
    transfer-dominated-regime statement.
    """
    base = base or ClusterReliabilityParameters()
    return _sweep(
        "repair_epoch_seconds",
        epochs_seconds,
        lambda e: replace(base, repair_epoch_seconds=e),
    )


# -- sampled repair costs for large codes ---------------------------------------


def sampled_repair_cost(
    code: ErasureCode,
    lost: int,
    rng: np.random.Generator,
    samples: int = 200,
    heavy_reads: int | None = None,
) -> RepairCostSummary:
    """Monte-Carlo estimate of the expected repair reads.

    Draws ``samples`` uniform loss patterns of size ``lost`` and costs
    the cheapest missing block of each (the ``target="cheapest"``
    convention of the exact enumerator).  Unbiased; the benchmark and
    archival sweeps use it where C(n, lost) enumeration is infeasible.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    everything = np.arange(code.n)
    patterns = (
        tuple(int(b) for b in rng.choice(everything, size=lost, replace=False))
        for _ in range(samples)
    )
    return _repair_cost(code, lost, patterns, heavy_reads, cheapest=True)


# -- archival stripes (Section 7) ------------------------------------------------


@dataclass(frozen=True)
class ArchivalRow:
    """One scheme at one archival stripe size."""

    scheme: str
    k: int
    n: int
    storage_overhead: float
    single_repair_reads: float
    mttdl_days: float


def _archival_chain(
    code: ErasureCode,
    params: ClusterReliabilityParameters,
    tolerated: int,
    reads: list[float],
) -> BirthDeathChain:
    lam = params.node_failure_rate
    failure_rates = tuple((code.n - i) * lam for i in range(tolerated + 1))
    repair_rates = tuple(
        1.0
        / (
            params.repair_epoch_seconds
            + reads[i] * params.block_size_bytes / params.cross_rack_bandwidth
        )
        for i in range(tolerated)
    )
    return BirthDeathChain(failure_rates=failure_rates, repair_rates=repair_rates)


def archival_comparison(
    stripe_sizes: tuple[int, ...] = (10, 20, 50, 100),
    parities: int = 4,
    group_size: int = 5,
    params: ClusterReliabilityParameters | None = None,
    samples: int = 150,
    seed: int = 0,
) -> list[ArchivalRow]:
    """RS(k, m) versus LRC(k, m, r) across archival stripe sizes.

    Both schemes keep ``parities`` RS parities, so both tolerate any
    ``parities`` block losses; the chains therefore have the same depth
    and the comparison isolates the repair-speed effect.  Expected reads
    per chain state are sampled (the codes are too long to enumerate).
    """
    params = params or ClusterReliabilityParameters()
    rng = np.random.default_rng(seed)
    rows: list[ArchivalRow] = []
    for k in stripe_sizes:
        rs = ReedSolomonCode(k, parities)
        lrc = make_lrc(k, parities, group_size)
        for code, label in ((rs, f"RS ({k},{parities})"), (lrc, lrc.name)):
            reads = [
                sampled_repair_cost(
                    code, lost, rng, samples=samples, heavy_reads=code.k
                ).expected_reads
                for lost in range(1, parities + 1)
            ]
            chain = _archival_chain(code, params, parities, reads)
            stripe_days = chain.mttdl_days()
            system_days = stripe_days / params.num_stripes(code.n)
            rows.append(
                ArchivalRow(
                    scheme=label,
                    k=k,
                    n=code.n,
                    storage_overhead=code.storage_overhead,
                    single_repair_reads=reads[0],
                    mttdl_days=system_days,
                )
            )
    return rows
