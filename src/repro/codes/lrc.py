"""Locally Repairable Codes (LRCs) — the paper's primary contribution.

Two constructions are provided:

* :func:`xorbas_lrc` — the explicit (10, 6, 5) LRC of Section 2.1 /
  Appendix D, built on the RS(10,4) generator G as
  ``G_LRC = [G | sum(g_1..g_5) | sum(g_6..g_10)]``.
  Because the all-ones vector lies in the RS parity-check rowspace, the
  implied parity ``S3 = S1 + S2`` equals ``P1+P2+P3+P4``, giving *every*
  one of the 16 blocks locality 5 with XOR-only repairs (Theorem 5), and
  the code keeps the optimal distance d = 5 for that locality (Theorem 2).

* :class:`LocallyRepairableCode` — the general (k, n-k, r) family: an
  MDS precode plus one XOR parity per r-group of data blocks, with the
  parity-group local parity left *implied* when alignment holds.

Block index layout (for k data blocks, m global parities, g local parities):
``[0, k)`` data, ``[k, k+m)`` global RS parities, ``[k+m, n)`` local parities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..galois import GF
from .base import CodeParameters, RepairPlan
from .linear import LinearCode
from .reed_solomon import ReedSolomonCode

__all__ = ["LocalGroup", "LocallyRepairableCode", "xorbas_lrc"]


@dataclass(frozen=True)
class LocalGroup:
    """One repair group: ``members`` XOR to zero.

    ``members`` includes the group's local parity when it is stored; for
    the implied group (the paper's S3) the constraint still holds but only
    among stored blocks, because S3 = S1 + S2 was *chosen* to cancel.
    Every stored member of the group can be rebuilt by XORing the others.
    """

    members: tuple[int, ...]
    implied: bool = False

    @property
    def size(self) -> int:
        return len(self.members)

    def repair_sources(self, lost: int) -> tuple[int, ...]:
        if lost not in self.members:
            raise ValueError(f"block {lost} is not in group {self.members}")
        return tuple(i for i in self.members if i != lost)


class LocallyRepairableCode(LinearCode):
    """A linear code equipped with XOR local-repair groups.

    The groups are *certified at construction time*: for every group the
    member generator columns must XOR to zero, so each advertised light
    plan is a true identity of the code, not a convention.
    """

    def __init__(
        self,
        field: GF,
        generator: np.ndarray,
        groups: list[LocalGroup],
        name: str = "",
        data_blocks: int | None = None,
    ):
        super().__init__(field, generator, name=name or "LRC")
        self.groups = list(groups)
        if data_blocks is not None and data_blocks != self.k:
            raise ValueError("data_blocks disagrees with generator row count")
        self._groups_by_block: dict[int, list[LocalGroup]] = {}
        for group in self.groups:
            self._validate_group(group)
            for member in group.members:
                self._groups_by_block.setdefault(member, []).append(group)

    def _validate_group(self, group: LocalGroup) -> None:
        if len(set(group.members)) != len(group.members):
            raise ValueError(f"duplicate members in group {group.members}")
        for member in group.members:
            if not 0 <= member < self.n:
                raise ValueError(f"group member {member} out of range")
        total = np.zeros(self.k, dtype=self.field.dtype)
        for member in group.members:
            np.bitwise_xor(total, self.generator[:, member], out=total)
        if np.any(total):
            raise ValueError(
                f"group {group.members} columns do not XOR to zero; "
                "not a valid XOR repair group for this generator"
            )

    # -- light decoder ---------------------------------------------------------

    def repair_plans(self, lost: int) -> list[RepairPlan]:
        """XOR plans from every group containing ``lost``.

        Plans are XOR-only by construction: c_i = 1 suffices for the
        Xorbas construction (Section 2.1), so no field multiplications
        happen on the repair path.
        """
        if not 0 <= lost < self.n:
            raise ValueError(f"block index {lost} out of range [0, {self.n})")
        plans = []
        for group in self._groups_by_block.get(lost, []):
            sources = group.repair_sources(lost)
            plans.append(
                RepairPlan(
                    lost=lost,
                    sources=sources,
                    coefficients=(1,) * len(sources),
                    kind="local",
                )
            )
        return plans

    def locality(self) -> int:
        """Worst-case advertised locality over all blocks."""
        worst = 0
        for block in range(self.n):
            plans = self.repair_plans(block)
            if not plans:
                return self.k
            worst = max(worst, min(plan.num_reads for plan in plans))
        return worst

    def parameters(self) -> CodeParameters:
        return CodeParameters(
            k=self.k,
            n=self.n,
            locality=self.locality(),
            minimum_distance=self._distance_cache,
            name=self.name,
        )


def _group_slices(total: int, group_size: int) -> list[tuple[int, ...]]:
    """Split ``range(total)`` into consecutive runs of ``group_size``."""
    return [
        tuple(range(start, min(start + group_size, total)))
        for start in range(0, total, group_size)
    ]


def make_lrc(
    k: int,
    global_parities: int,
    group_size: int,
    field: GF | None = None,
    name: str = "",
) -> LocallyRepairableCode:
    """Build a (k, n-k, r) LRC on top of an RS precode.

    Data blocks are split into ``ceil(k / group_size)`` groups and each
    group gets a stored XOR parity.  If the global parities form a single
    group no larger than ``group_size`` *and* alignment holds (the RS
    all-ones row guarantees it), their local parity is implied — the sum
    of the stored data-group parities — and is not stored, saving one
    block exactly as the paper's S3 optimisation does.

    For ``make_lrc(10, 4, 5)`` this reproduces the Xorbas (10, 6, 5) code.
    """
    precode = ReedSolomonCode(k, global_parities, field=field)
    field = precode.field
    generator = precode.generator
    data_groups = _group_slices(k, group_size)
    parity_members = tuple(range(k, k + global_parities))

    def xor_columns(members: tuple[int, ...]) -> np.ndarray:
        column = np.zeros(k, dtype=field.dtype)
        for m in members:
            np.bitwise_xor(column, generator[:, m], out=column)
        return column

    local_columns = [xor_columns(members) for members in data_groups]
    groups: list[LocalGroup] = []
    next_index = precode.n
    for members in data_groups:
        groups.append(LocalGroup(members=members + (next_index,)))
        next_index += 1
    data_parity_ids = tuple(range(precode.n, next_index))

    # Parity-group local parity.  When alignment holds (Appendix D: the RS
    # all-ones parity-check row makes every codeword XOR to zero) *and*
    # repairing a global parity from the other globals plus the stored
    # data-group parities stays within the locality budget, the parity
    # S3 = S1 + ... is implied and costs no storage — the paper's S3
    # optimisation.  Otherwise a real XOR parity of the global parities is
    # stored so the advertised locality r holds for every block.
    all_cols = xor_columns(tuple(range(precode.n)))
    aligned = not np.any(all_cols)
    implied_group_reads = global_parities - 1 + len(data_groups)
    if aligned and implied_group_reads <= group_size:
        groups.append(
            LocalGroup(members=parity_members + data_parity_ids, implied=True)
        )
    else:
        for members in _group_slices(global_parities, group_size):
            shifted = tuple(k + m for m in members)
            local_columns.append(xor_columns(shifted))
            groups.append(LocalGroup(members=shifted + (next_index,)))
            next_index += 1

    full_generator = np.concatenate(
        [generator] + [c.reshape(-1, 1) for c in local_columns], axis=1
    )
    code = LocallyRepairableCode(
        field,
        full_generator,
        groups,
        name=name or f"LRC({k},{full_generator.shape[1] - k},{group_size})",
    )
    code.precode = precode
    return code


def xorbas_lrc(field: GF | None = None) -> LocallyRepairableCode:
    """The explicit (10, 6, 5) LRC implemented in HDFS-Xorbas.

    Layout: blocks 0-9 are X1..X10, 10-13 are the RS parities P1..P4,
    14 is S1 = X1+...+X5 and 15 is S2 = X6+...+X10.  The implied parity
    S3 = S1 + S2 = P1+P2+P3+P4 never hits disk.
    """
    return make_lrc(10, 4, 5, field=field, name="LRC(10,6,5)")
