"""The original per-block dict/set NameNode: the executable spec the
columnar :class:`~repro.cluster.namenode.NameNode` must answer
identically to, and the BlockIndex benchmark's baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.blockindex import RepairQueueEntry
from repro.cluster.blocks import BlockId, Stripe
from repro.cluster.namenode import NameNodeAPI, PlacementError
from repro.codes.base import mask_of

__all__ = ["DictDataNode", "DictNameNode"]


@dataclass
class DictDataNode:
    """A storage node: holds block replicas, may die, may be decommissioned."""

    node_id: str
    alive: bool = True
    decommissioning: bool = False  # readable, but no longer a placement target
    blocks: set[BlockId] = field(default_factory=set)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def __hash__(self) -> int:
        return hash(self.node_id)


class DictNameNode(NameNodeAPI):
    """The original per-block dict/set NameNode (reference behaviour).

    It keys its maps by the ``BlockId`` it builds from each
    ``(stripe, position)`` call.
    """

    def __init__(
        self,
        node_ids: list[str],
        rng: np.random.Generator,
        rack_of: dict[str, int] | None = None,
    ):
        if not node_ids:
            raise ValueError("cluster needs at least one DataNode")
        self.nodes: dict[str, DictDataNode] = {
            node_id: DictDataNode(node_id) for node_id in node_ids
        }
        self.node_ids = list(node_ids)
        self.rack_of = rack_of or {}
        self.rng = rng
        self.stripes: dict[tuple[str, int], Stripe] = {}
        self._locations: dict[BlockId, str] = {}
        self._missing: set[BlockId] = set()
        self._in_repair: set[BlockId] = set()
        self.undetected_dead: set[str] = set()

    # -- placement ----------------------------------------------------------------

    def add_block(self, stripe: Stripe, position: int, node_id: str) -> None:
        block = stripe.block_id(position)
        node = self.nodes[node_id]
        if not node.alive:
            raise PlacementError(f"cannot place {block} on dead node {node_id}")
        previous = self._locations.get(block)
        if previous is not None and previous != node_id:
            # A block lives on exactly one node: a racing duplicate
            # repair write relocates it rather than leaking a stale
            # entry in the old node's set.
            self.nodes[previous].blocks.discard(block)
        node.blocks.add(block)
        self._locations[block] = node_id
        self._missing.discard(block)

    def remove_block(self, stripe: Stripe, position: int) -> None:
        block = stripe.block_id(position)
        node_id = self._locations.pop(block, None)
        if node_id is not None:
            self.nodes[node_id].blocks.discard(block)

    # -- liveness ----------------------------------------------------------------

    def placement_of(self, stripe: Stripe, position: int) -> str | None:
        return self._locations.get(stripe.block_id(position))

    def locate(self, stripe: Stripe, position: int) -> str | None:
        node_id = self.placement_of(stripe, position)
        if node_id is None or not self.nodes[node_id].alive:
            return None
        return node_id

    def kill_node(self, node_id: str) -> int:
        node = self.nodes[node_id]
        if not node.alive:
            return 0
        node.alive = False
        self.undetected_dead.add(node_id)
        return len(node.blocks)

    def detect_failures(self, node_id: str) -> int:
        if node_id not in self.undetected_dead:
            return 0
        self.undetected_dead.discard(node_id)
        node = self.nodes[node_id]
        for block in node.blocks:
            self._locations.pop(block, None)
        self._missing.update(node.blocks)
        lost = len(node.blocks)
        node.blocks.clear()
        return lost

    def detection_pending(self) -> bool:
        return any(
            self.nodes[node_id].blocks for node_id in self.undetected_dead
        )

    def blocks_on_node(self, node_id: str) -> list[BlockId]:
        return sorted(self.nodes[node_id].blocks)

    def node_block_counts(self) -> dict[str, int]:
        return {node_id: len(n.blocks) for node_id, n in self.nodes.items()}

    # -- stripe-level views (used by the BlockFixer) --------------------------------

    def available_positions(self, stripe: Stripe) -> dict[int, str]:
        out = {}
        for position in stripe.stored_positions():
            node_id = self.locate(stripe, position)
            if node_id is not None:
                out[position] = node_id
        return out

    def _missing_positions(self, stripe: Stripe) -> list[int]:
        return [
            position
            for position in stripe.stored_positions()
            if self.is_missing(stripe, position)
        ]

    def is_missing(self, stripe: Stripe, position: int) -> bool:
        return stripe.block_id(position) in self._missing

    def mark_missing(self, stripe: Stripe, position: int) -> None:
        self._missing.add(stripe.block_id(position))

    def missing_block_ids(self) -> list[BlockId]:
        return sorted(self._missing)

    def stripe_node_set(self, stripe: Stripe) -> set[str]:
        used = set()
        for position in range(stripe.n):
            if stripe.is_virtual(position):
                continue
            node_id = self.placement_of(stripe, position)
            if node_id is not None:
                used.add(node_id)
        return used

    def repair_queue(self) -> list[RepairQueueEntry]:
        """The seed scan algorithm over Python sets, claiming in a set."""
        pending = sorted(self._missing - self._in_repair)
        by_stripe: dict[tuple[str, int], list[int]] = {}
        for block in pending:
            by_stripe.setdefault(
                (block.file_name, block.stripe_index), []
            ).append(block.position)
        entries = []
        for key in sorted(by_stripe):
            stripe = self.stripes[key]
            usable = set(self.available_positions(stripe))
            usable.update(
                p for p in range(stripe.n) if stripe.is_virtual(p)
            )
            entries.append(
                RepairQueueEntry(
                    stripe=stripe,
                    claimed=mask_of(by_stripe[key]),
                    missing=mask_of(self._missing_positions(stripe)),
                    usable=mask_of(usable),
                )
            )
        self._in_repair.update(pending)
        return entries

    def release(self, stripe: Stripe, position: int) -> None:
        self._in_repair.discard(stripe.block_id(position))

    def resolve(self, stripe: Stripe, position: int) -> None:
        block = stripe.block_id(position)
        self._missing.discard(block)
        self._in_repair.discard(block)

    @property
    def in_repair_count(self) -> int:
        return len(self._in_repair)

    @property
    def missing_count(self) -> int:
        return len(self._missing)

    def fsck(self) -> dict[str, int]:
        return {
            "stored_blocks": len(self._locations),
            "missing_blocks": len(self._missing),
            "dead_nodes": sum(1 for n in self.nodes.values() if not n.alive),
            "alive_nodes": sum(1 for n in self.nodes.values() if n.alive),
        }
