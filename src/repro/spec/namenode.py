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
    """The original per-block dict/set NameNode (reference behaviour)."""

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
        self.block_locations: dict[BlockId, str] = {}
        self.stripes: dict[tuple[str, int], Stripe] = {}
        self.missing_blocks: set[BlockId] = set()
        self.in_repair: set[BlockId] = set()
        self.undetected_dead: set[str] = set()

    # -- placement ----------------------------------------------------------------

    def add_block(self, block: BlockId, node_id: str) -> None:
        node = self.nodes[node_id]
        if not node.alive:
            raise PlacementError(f"cannot place {block} on dead node {node_id}")
        previous = self.block_locations.get(block)
        if previous is not None and previous != node_id:
            # A block lives on exactly one node: a racing duplicate
            # repair write relocates it rather than leaking a stale
            # entry in the old node's set.
            self.nodes[previous].blocks.discard(block)
        node.blocks.add(block)
        self.block_locations[block] = node_id
        self.missing_blocks.discard(block)

    def remove_block(self, block: BlockId) -> None:
        node_id = self.block_locations.pop(block, None)
        if node_id is not None:
            self.nodes[node_id].blocks.discard(block)

    # -- liveness ----------------------------------------------------------------

    def locate(self, block: BlockId) -> str | None:
        node_id = self.block_locations.get(block)
        if node_id is None:
            return None
        if not self.nodes[node_id].alive:
            return None
        return node_id

    def kill_node(self, node_id: str) -> list[BlockId]:
        node = self.nodes[node_id]
        if not node.alive:
            return []
        node.alive = False
        self.undetected_dead.add(node_id)
        return sorted(node.blocks)

    def detect_failures(self, node_id: str) -> list[BlockId]:
        if node_id not in self.undetected_dead:
            return []
        self.undetected_dead.discard(node_id)
        node = self.nodes[node_id]
        lost = sorted(node.blocks)
        for block in lost:
            self.block_locations.pop(block, None)
            self.missing_blocks.add(block)
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
            node_id = self.locate(stripe.block_id(position))
            if node_id is not None:
                out[position] = node_id
        return out

    def missing_positions(self, stripe: Stripe) -> list[int]:
        return [
            position
            for position in stripe.stored_positions()
            if stripe.block_id(position) in self.missing_blocks
        ]

    def stripe_node_set(self, stripe: Stripe) -> set[str]:
        used = set()
        for position in range(stripe.n):
            if stripe.is_virtual(position):
                continue
            node_id = self.block_locations.get(stripe.block_id(position))
            if node_id is not None:
                used.add(node_id)
        return used

    def repair_queue(self) -> list[RepairQueueEntry]:
        """The seed scan algorithm over Python sets, claiming in a set."""
        pending = sorted(self.missing_blocks - self.in_repair)
        by_stripe: dict[tuple[str, int], list[BlockId]] = {}
        for block in pending:
            by_stripe.setdefault(
                (block.file_name, block.stripe_index), []
            ).append(block)
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
                    blocks=tuple(by_stripe[key]),
                    missing=mask_of(self.missing_positions(stripe)),
                    usable=mask_of(usable),
                )
            )
        self.in_repair.update(pending)
        return entries

    def release(self, block: BlockId) -> None:
        self.in_repair.discard(block)

    def resolve(self, block: BlockId) -> None:
        self.missing_blocks.discard(block)
        self.in_repair.discard(block)

    @property
    def in_repair_count(self) -> int:
        return len(self.in_repair)

    def fsck(self) -> dict[str, int]:
        return {
            "stored_blocks": len(self.block_locations),
            "missing_blocks": len(self.missing_blocks),
            "dead_nodes": sum(1 for n in self.nodes.values() if not n.alive),
            "alive_nodes": sum(1 for n in self.nodes.values() if n.alive),
        }
