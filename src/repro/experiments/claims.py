"""A machine-checkable ledger of the paper's quantitative claims.

Every load-bearing number the paper states in prose — the 2x repair
reduction, the 14% storage premium, "two more zeros" of MTTDL, the
Theorem 5 optimality — is encoded here as a :class:`Claim` whose
``check`` evaluates the statement against this repository's own
implementations and returns the measured value.  ``python -m repro
claims`` prints the ledger; the test suite asserts every claim holds,
so a regression anywhere in the stack that would break a published
number fails CI by name.

Only fast artefacts are checked here (code structure, planners, Markov
model).  The cluster-simulation claims (Figures 4-7, Tables 2-3) have
their own benchmarks with paper-vs-measured assertions; see
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..codes.analysis import repair_cost_summary
from ..codes.bounds import overlapping_groups_distance_bound
from ..codes.lrc import xorbas_lrc
from ..codes.reed_solomon import rs_10_4
from ..reliability.availability import degraded_read_delay
from ..reliability.mttdl import compute_table1, mttdl_zeros
from .report import format_table

__all__ = ["Claim", "ClaimResult", "paper_claims", "check_all_claims", "render_claims"]


@dataclass(frozen=True)
class Claim:
    """One verifiable statement from the paper.

    ``known_delta`` marks claims EXPERIMENTS.md documents as not
    exactly reproducible from the text (e.g. Table 1's coded-scheme
    MTTDLs, whose repair-rate constants the paper omits): their checks
    verify the *reproducible part* and the ledger reports "delta"
    instead of pass/fail.
    """

    id: str
    section: str
    statement: str
    paper_value: str
    check: Callable[[], tuple[str, bool]]
    known_delta: str = ""


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    measured: str
    holds: bool

    @property
    def status(self) -> str:
        if self.claim.known_delta:
            return "delta" if self.holds else "NO"
        return "yes" if self.holds else "NO"


def _storage_premium() -> tuple[str, bool]:
    lrc, rs = xorbas_lrc(), rs_10_4()
    premium = lrc.n / rs.n - 1
    return f"{premium:.1%}", abs(premium - 1 / 7) < 1e-9


def _repair_reduction() -> tuple[str, bool]:
    lrc, rs = xorbas_lrc(), rs_10_4()
    lrc_reads = repair_cost_summary(lrc, 1).expected_reads
    rs_reads = repair_cost_summary(rs, 1).expected_reads  # deployed: 13
    ratio = rs_reads / lrc_reads
    return f"{rs_reads:.0f} vs {lrc_reads:.0f} reads ({ratio:.1f}x)", ratio >= 2.0


def _bytes_read_fraction() -> tuple[str, bool]:
    """Xorbas reads 41-52% of RS bytes; single-loss theory: ~12.14/5."""
    lrc, rs = xorbas_lrc(), rs_10_4()
    # Mixture over 1- and 2-loss events, as in the EC2 runs where
    # "more than one blocks per stripe are occasionally lost".
    lrc_reads = sum(
        repair_cost_summary(lrc, lost).expected_reads for lost in (1, 2)
    )
    rs_reads = sum(
        repair_cost_summary(rs, lost).expected_reads for lost in (1, 2)
    )
    fraction = lrc_reads / rs_reads
    return f"{fraction:.0%}", 0.35 <= fraction <= 0.55


def _distance_optimal() -> tuple[str, bool]:
    code = xorbas_lrc()
    d = code.minimum_distance()
    bound = overlapping_groups_distance_bound(code.n, code.k, 5)
    return f"d = {d}, bound = {bound}", d == 5 == bound


def _all_blocks_local() -> tuple[str, bool]:
    code = xorbas_lrc()
    localities = [
        min(p.num_reads for p in code.repair_plans(i)) for i in range(code.n)
    ]
    ok = all(r == 5 for r in localities)
    return f"locality {min(localities)}..{max(localities)} over 16 blocks", ok


def _xor_only() -> tuple[str, bool]:
    code = xorbas_lrc()
    plans = [p for i in range(code.n) for p in code.repair_plans(i)]
    ok = all(p.is_xor_only() for p in plans)
    return f"{len(plans)} plans, all c_i = 1: {ok}", ok


def _implied_parity() -> tuple[str, bool]:
    """S1 + S2 equals the XOR of the four RS parities (so S3 is free)."""
    import numpy as np

    code = xorbas_lrc()
    s1s2 = np.bitwise_xor(code.generator[:, 14], code.generator[:, 15])
    parities = np.zeros(code.k, dtype=code.field.dtype)
    for j in range(10, 14):
        np.bitwise_xor(parities, code.generator[:, j], out=parities)
    ok = bool(np.array_equal(s1s2, parities))
    return f"S1+S2 == P1+P2+P3+P4: {ok}", ok


def _mttdl_ordering() -> tuple[str, bool]:
    rows = {r.name: r for r in compute_table1()}
    repl = rows["3-replication"].mttdl_days
    rs = rows["RS (10,4)"].mttdl_days
    lrc = rows["LRC (10,6,5)"].mttdl_days
    zeros = (mttdl_zeros(repl), mttdl_zeros(rs), mttdl_zeros(lrc))
    ok = repl < rs < lrc and zeros[1] - zeros[0] >= 3
    return f"zeros: repl={zeros[0]}, RS={zeros[1]}, LRC={zeros[2]}", ok


def _mttdl_gap() -> tuple[str, bool]:
    """The reproducible part of "+2 zeros": LRC strictly above RS.

    Our transparent first-principles rates give ~0.7 orders, not 2;
    the paper's own repair-rate constants are unpublished (known delta,
    EXPERIMENTS.md, Table 1 section).
    """
    import math

    rows = {r.name: r for r in compute_table1()}
    gap = math.log10(
        rows["LRC (10,6,5)"].mttdl_days / rows["RS (10,4)"].mttdl_days
    )
    return f"LRC/RS gap = {gap:.1f} orders (paper: 2.0)", gap > 0.3


def _degraded_read_speedup() -> tuple[str, bool]:
    block, gbps = 256e6, 1e9 / 8
    rs = degraded_read_delay(rs_10_4(), block, gbps)
    lrc = degraded_read_delay(xorbas_lrc(), block, gbps)
    ratio = rs / lrc
    return f"{rs:.1f}s vs {lrc:.1f}s ({ratio:.1f}x)", 1.8 <= ratio <= 2.2


def _archival_scaling() -> tuple[str, bool]:
    from ..codes.lrc import make_lrc
    from ..codes.reed_solomon import ReedSolomonCode

    k = 50
    rs = ReedSolomonCode(k, 4)
    lrc = make_lrc(k, 4, 5)
    rs_reads = rs.heavy_read_count(range(1, rs.n))  # RS has no light plan
    lrc_reads = min(p.num_reads for p in lrc.repair_plans(0))
    return (
        f"k={k}: RS reads {rs_reads}, LRC reads {lrc_reads}",
        rs_reads >= k and lrc_reads <= 5,
    )


def paper_claims() -> list[Claim]:
    return [
        Claim(
            "storage-14pct",
            "Abstract / 2.1",
            "LRC requires 14% more storage than RS(10,4)",
            "14% (16/14 - 1)",
            _storage_premium,
        ),
        Claim(
            "repair-2x",
            "Abstract / 3.1.2",
            "~2x reduction in repair disk I/O and network traffic",
            ">= 2x",
            _repair_reduction,
        ),
        Claim(
            "bytes-41-52",
            "5.2.1",
            "Xorbas reads 41-52% of the data RS reads",
            "41-52%",
            _bytes_read_fraction,
        ),
        Claim(
            "d5-optimal",
            "Theorem 5",
            "d = 5 is the largest distance for locality 5 at n = 16",
            "d = 5",
            _distance_optimal,
        ),
        Claim(
            "locality-all-16",
            "Theorem 5",
            "all 16 coded blocks have locality 5",
            "r = 5",
            _all_blocks_local,
        ),
        Claim(
            "xor-only",
            "2.1",
            "choosing c_i = 1 (pure XOR) suffices for RS precodes",
            "c_i = 1",
            _xor_only,
        ),
        Claim(
            "implied-parity",
            "2.1",
            "S3 = S1 + S2 need not be stored (parity alignment)",
            "S1+S2+S3 = 0",
            _implied_parity,
        ),
        Claim(
            "mttdl-ordering",
            "Section 4 / Table 1",
            "reliability ordering: replication << RS < LRC",
            "repl << RS < LRC",
            _mttdl_ordering,
        ),
        Claim(
            "mttdl-zeros",
            "Section 4 / Table 1",
            "LRC has 2 more zeros of MTTDL than RS",
            "+2 zeros",
            _mttdl_gap,
            known_delta=(
                "paper's repair-rate constants unpublished; transparent "
                "model gives ~0.7 orders (EXPERIMENTS.md)"
            ),
        ),
        Claim(
            "degraded-2x",
            "Sections 1.1 / 4",
            "degraded reads reconstruct ~2x faster under LRC",
            "~2x",
            _degraded_read_speedup,
        ),
        Claim(
            "archival-flat",
            "Section 7",
            "RS repair grows with stripe size; LRC stays at the group size",
            "linear vs flat",
            _archival_scaling,
        ),
    ]


def check_all_claims() -> list[ClaimResult]:
    results = []
    for claim in paper_claims():
        measured, holds = claim.check()
        results.append(ClaimResult(claim=claim, measured=measured, holds=holds))
    return results


def render_claims(results: list[ClaimResult] | None = None) -> str:
    results = results if results is not None else check_all_claims()
    table = format_table(
        ["id", "section", "paper", "measured", "status"],
        [
            (
                r.claim.id,
                r.claim.section,
                r.claim.paper_value,
                r.measured,
                r.status,
            )
            for r in results
        ],
        title="Paper claims ledger (fast analytical checks)",
    )
    deltas = [r for r in results if r.claim.known_delta]
    if deltas:
        notes = "\n".join(
            f"  delta {r.claim.id}: {r.claim.known_delta}" for r in deltas
        )
        table += "\nKnown deltas:\n" + notes
    return table
