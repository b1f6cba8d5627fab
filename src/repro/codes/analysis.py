"""Exact structural analysis and certification of concrete codes.

Where :mod:`repro.codes.bounds` states what is *possible*, this module
verifies what a given code *achieves*: exhaustive minimum-distance and
locality certification, MDS checks, and the expected-repair-cost
combinatorics that both the reliability model (Section 4) and the
benchmarks reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .base import ErasureCode, mask_of, positions_of, survival_masks
from .bounds import locality_distance_bound, singleton_bound
from .linear import LinearCode

__all__ = [
    "certify_distance",
    "certify_locality",
    "is_mds",
    "achieves_locality_bound",
    "RepairCostSummary",
    "repair_cost_summary",
]


def certify_distance(code: LinearCode, expected: int) -> bool:
    """Exhaustively verify that ``code`` has minimum distance ``expected``.

    Checks both directions: every (expected-1)-erasure pattern is
    decodable, and at least one ``expected``-erasure pattern is fatal —
    one :meth:`~repro.codes.base.ErasureCode.decodable` call per size.
    Raises AssertionError with a counterexample on failure.
    """
    survivors = survival_masks(code.n, expected - 1)
    decodable = code.decodable(survivors)
    if not decodable.all():
        lost = ((1 << code.n) - 1) ^ survivors[int(decodable.argmin())]
        raise AssertionError(
            f"{code.name}: erasure pattern {positions_of(lost)} of size "
            f"{expected - 1} already breaks decoding; d < {expected}"
        )
    if expected == code.n + 1:
        return True  # repetition-style corner: no fatal pattern exists
    if not code.decodable(survival_masks(code.n, expected)).all():
        return True
    raise AssertionError(
        f"{code.name}: no fatal erasure pattern of size {expected}; d > {expected}"
    )


def certify_locality(code: LinearCode, expected: int, exact: bool = True) -> bool:
    """Verify every block of ``code`` has locality <= ``expected``.

    With ``exact=True`` additionally verifies at least one block cannot be
    repaired from fewer than ``expected`` blocks, i.e. the locality is not
    better than advertised (so the storage-overhead claim is honest).
    """
    localities = [
        code.block_locality(block, max_r=expected) for block in range(code.n)
    ]
    for block, r in enumerate(localities):
        if r > expected:
            raise AssertionError(
                f"{code.name}: block {block} has locality > {expected}"
            )
    if exact and expected > 1:
        worst = max(localities)
        if worst < expected:
            raise AssertionError(
                f"{code.name}: every block repairable from {worst} < {expected} "
                "blocks; advertised locality is loose"
            )
    return True


def is_mds(code: LinearCode) -> bool:
    """Whether the code meets the Singleton bound with equality."""
    return code.minimum_distance() == singleton_bound(code.n, code.k)


def achieves_locality_bound(code: LinearCode, r: int) -> bool:
    """Whether the code's distance meets Theorem 2's bound for locality r."""
    return code.minimum_distance() == locality_distance_bound(code.n, code.k, r)


# -- repair-cost combinatorics --------------------------------------------------


@dataclass(frozen=True)
class RepairCostSummary:
    """Expected repair cost with ``lost`` blocks missing from a stripe.

    ``expected_reads`` is the mean number of blocks downloaded to repair
    one designated lost block; ``light_fraction`` the probability the
    light decoder suffices.  Averages over all loss patterns uniformly —
    the model Section 4 uses when it "determines the probabilities for
    invoking light or heavy decoder".
    """

    lost: int
    expected_reads: float
    light_fraction: float


def repair_cost_summary(
    code: ErasureCode,
    lost: int = 1,
    heavy_reads: int | None = None,
    target: str = "first",
) -> RepairCostSummary:
    """Exact expectation over all C(n, lost) loss patterns.

    ``target`` selects which missing block's repair is costed:

    * ``"first"`` — the lowest-index missing block, i.e. an arbitrary
      fixed block of the pattern.
    * ``"cheapest"`` — the cheapest-to-repair missing block.  This models
      the Markov chain's backward transition when the BlockFixer
      dispatches repairs for all missing blocks and light-decoder jobs
      finish first (Section 3.1.2), which is the relevant rate for the
      Section 4 reliability analysis.

    ``heavy_reads`` overrides the heavy-decoder read count; the deployed
    BlockFixer reads *all* survivors (the default), while an efficient
    decoder — and the paper's Section 4 analysis — reads only ``k``.
    """
    if target not in ("first", "cheapest"):
        raise ValueError("target must be 'first' or 'cheapest'")
    patterns = combinations(range(code.n), lost)
    return _repair_cost(code, lost, patterns, heavy_reads, target == "cheapest")


def _repair_cost(
    code: ErasureCode,
    lost: int,
    patterns: Iterable[tuple[int, ...]],
    heavy_reads: int | None,
    cheapest: bool,
) -> RepairCostSummary:
    """Mean cost of repairing each pattern's first (or cheapest) block,
    shared by the exact enumerator and ``sampled_repair_cost``.  A pattern
    with fewer than k survivors has no repair to cost."""
    if not 1 <= lost <= code.n - code.k:
        raise ValueError(f"lost must be in [1, n - k = {code.n - code.k}]")
    total_reads = 0.0
    light_hits = 0
    count = 0
    everything = (1 << code.n) - 1
    for pattern in patterns:
        survivors = everything ^ mask_of(pattern)
        best_cost = None
        best_is_light = False
        for block in pattern if cheapest else pattern[:1]:
            plan = code.light_plan(block, survivors)
            if plan is not None:
                cost, is_light = plan.num_reads, True
            elif heavy_reads is not None:
                cost, is_light = heavy_reads, False
            else:
                cost, is_light = code.heavy_read_count(positions_of(survivors)), False
            if best_cost is None or cost < best_cost:
                best_cost, best_is_light = cost, is_light
        total_reads += best_cost
        light_hits += best_is_light
        count += 1
    return RepairCostSummary(
        lost=lost,
        expected_reads=total_reads / count,
        light_fraction=light_hits / count,
    )
