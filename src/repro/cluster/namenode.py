"""DataNodes and the NameNode: block placement and liveness tracking.

The NameNode keeps the block map (block -> DataNode) and learns about
node deaths only after a detection delay (heartbeat expiry), which is
when blocks become *missing* and eligible for the BlockFixer.  The
default placement policy mirrors Hadoop's: random spread that avoids
collocating blocks of the same stripe (Section 3.1.1) so that one node
death loses at most one block per stripe.

The NameNode is backed by the columnar
:class:`~repro.cluster.blockindex.BlockIndex`: failure detection, fsck,
per-stripe views and the bulk repair-queue builder are numpy scans,
which is what lets simulations carry millions of blocks.  The original
per-block dict/set bookkeeping lives on as the test-only oracle
``repro.spec.namenode.DictNameNode``; both honour :class:`NameNodeAPI`.

``missing_blocks`` and ``block_locations`` remain set-like and
dict-like (views over the index), so callers are agnostic to the
backing store.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..codes.base import mask_of
from .blockindex import BlockIndex, RepairQueueEntry
from .blocks import BlockId, Stripe

__all__ = [
    "DataNode",
    "NameNode",
    "NameNodeAPI",
    "PlacementError",
]


class PlacementError(Exception):
    """Raised when the placement policy cannot satisfy its constraints."""


class NameNodeAPI:
    """Shared placement logic + the contract both implementations honour."""

    rng: np.random.Generator
    rack_of: dict[str, int]
    stripes: dict[tuple[str, int], Stripe]

    # -- topology ---------------------------------------------------------------

    def alive_nodes(self):
        return [n for n in self.nodes.values() if n.alive]

    def placement_candidates(self):
        """Nodes eligible to receive new blocks (alive, not retiring)."""
        return [n for n in self.nodes.values() if n.alive and not n.decommissioning]

    def node(self, node_id: str):
        return self.nodes[node_id]

    # -- placement ----------------------------------------------------------------

    def register_stripe(self, stripe: Stripe) -> None:
        self.stripes[(stripe.file_name, stripe.index)] = stripe

    def stripe_of(self, block: BlockId) -> Stripe:
        return self.stripes[(block.file_name, block.stripe_index)]

    def place_stripe(self, stripe: Stripe) -> None:
        """Spread a stripe's stored blocks across distinct nodes.

        Falls back to allowing collocation only when the stripe is wider
        than the cluster (never the case in the paper's setups).
        """
        self.register_stripe(stripe)
        positions = stripe.stored_positions()
        candidates = self.placement_candidates()
        if not candidates:
            raise PlacementError("no alive DataNodes")
        distinct = len(candidates) >= len(positions)
        if distinct:
            chosen = self.rng.choice(
                len(candidates), size=len(positions), replace=False
            )
        else:
            chosen = self.rng.choice(
                len(candidates), size=len(positions), replace=True
            )
        for position, node_index in zip(positions, chosen):
            self.add_block(stripe.block_id(position), candidates[node_index].node_id)

    # -- liveness ----------------------------------------------------------------

    def is_available(self, block: BlockId) -> bool:
        return self.locate(block) is not None

    def readable_bits(self, stripe: Stripe, exclude_node: str | None = None) -> int:
        """The stripe's readable positions as a pattern bitmask: stored
        on an alive node other than ``exclude_node`` (the decommission
        planner never reads the retiring node).  A decoder's *usable*
        pattern is this ``| stripe.virtual_bits``."""
        return mask_of(
            position
            for position, node_id in self.available_positions(stripe).items()
            if node_id != exclude_node
        )


# ---------------------------------------------------------------------------
# Columnar implementation (the default)
# ---------------------------------------------------------------------------


class DataNode:
    """View of one storage node over the columnar BlockIndex.

    Keeps the attribute surface of the original dataclass (``alive``,
    ``decommissioning``, ``blocks``, ``block_count``) while the truth
    lives in the index's node columns.
    """

    __slots__ = ("node_id", "_index", "_idx")

    def __init__(self, node_id: str, index: BlockIndex, idx: int):
        self.node_id = node_id
        self._index = index
        self._idx = idx

    @property
    def alive(self) -> bool:
        return bool(self._index.node_alive[self._idx])

    @alive.setter
    def alive(self, value: bool) -> None:
        self._index.node_alive[self._idx] = bool(value)

    @property
    def decommissioning(self) -> bool:
        return bool(self._index.node_decommissioning[self._idx])

    @decommissioning.setter
    def decommissioning(self, value: bool) -> None:
        self._index.node_decommissioning[self._idx] = bool(value)

    @property
    def block_count(self) -> int:
        return int(self._index.node_block_count[self._idx])

    @property
    def blocks(self) -> set[BlockId]:
        """The node's resident blocks, materialized (prefer
        :meth:`NameNode.blocks_on_node` in hot paths)."""
        index = self._index
        return set(index.blocks_of_rows(index.rows_on_node(self._idx)))

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __repr__(self) -> str:
        return (
            f"DataNode({self.node_id!r}, alive={self.alive}, "
            f"blocks={self.block_count})"
        )


class MissingBlockView:
    """Set-like facade over the index's ``missing`` column."""

    __slots__ = ("_index",)

    def __init__(self, index: BlockIndex):
        self._index = index

    def _row(self, block: BlockId) -> int:
        row = self._index.row_of(block)
        if row < 0:
            raise KeyError(f"{block} belongs to no registered stripe")
        return row

    def add(self, block: BlockId) -> None:
        self._index.set_missing(self._row(block), True)

    def discard(self, block: BlockId) -> None:
        row = self._index.row_of(block)
        if row >= 0:
            self._index.set_missing(row, False)

    def __contains__(self, block: object) -> bool:
        if not isinstance(block, BlockId):
            return False
        row = self._index.row_of(block)
        return row >= 0 and bool(self._index.missing[row])

    def __len__(self) -> int:
        return int(self._index.missing_count)

    def __bool__(self) -> bool:
        return self._index.missing_count > 0

    def __iter__(self) -> Iterator[BlockId]:
        index = self._index
        return iter(index.blocks_of_rows(index.sort_rows(index.missing_rows())))

    def __sub__(self, other) -> set[BlockId]:
        return set(self) - set(other)


class BlockLocationView:
    """Read-only dict-like facade over the index's ``node`` column."""

    __slots__ = ("_index",)

    def __init__(self, index: BlockIndex):
        self._index = index

    def get(self, block: BlockId, default=None):
        row = self._index.row_of(block)
        if row < 0:
            return default
        node_idx = self._index.node[row]
        if node_idx < 0:
            return default
        return self._index.node_ids[node_idx]

    def __getitem__(self, block: BlockId) -> str:
        node_id = self.get(block)
        if node_id is None:
            raise KeyError(block)
        return node_id

    def __contains__(self, block: object) -> bool:
        return isinstance(block, BlockId) and self.get(block) is not None

    def __len__(self) -> int:
        return int(self._index.stored_count)

    def __iter__(self) -> Iterator[BlockId]:
        index = self._index
        rows = np.flatnonzero(index.node[: index.rows_used] >= 0)
        return iter(index.blocks_of_rows(index.sort_rows(rows)))


class NameNode(NameNodeAPI):
    """Block map + placement + failure bookkeeping, columnar backend."""

    def __init__(
        self,
        node_ids: list[str],
        rng: np.random.Generator,
        rack_of: dict[str, int] | None = None,
    ):
        if not node_ids:
            raise ValueError("cluster needs at least one DataNode")
        self.index = BlockIndex(node_ids)
        self.nodes: dict[str, DataNode] = {
            node_id: DataNode(node_id, self.index, i)
            for i, node_id in enumerate(node_ids)
        }
        self.rack_of = rack_of or {}
        self.rng = rng
        self.stripes: dict[tuple[str, int], Stripe] = {}
        self.missing_blocks = MissingBlockView(self.index)
        self.block_locations = BlockLocationView(self.index)
        self.undetected_dead: set[str] = set()
        # kill_node -> detect_failures block-list reuse: dead nodes
        # cannot gain blocks, so an unchanged count means an unchanged
        # block set and detection skips re-materializing 10^4 BlockIds.
        self._kill_cache: dict[str, tuple[int, list[BlockId]]] = {}

    # -- placement ----------------------------------------------------------------

    def register_stripe(self, stripe: Stripe) -> None:
        self.index.register_stripe(stripe)  # rejects stripes it cannot index
        super().register_stripe(stripe)

    def add_block(self, block: BlockId, node_id: str) -> None:
        node_idx = self.index.node_index[node_id]
        if not self.index.node_alive[node_idx]:
            raise PlacementError(f"cannot place {block} on dead node {node_id}")
        row = self.index.row_of(block)
        if row < 0:
            raise KeyError(
                f"{block} belongs to no registered stripe; register it first"
            )
        self.index.place(row, node_idx)

    def remove_block(self, block: BlockId) -> None:
        row = self.index.row_of(block)
        if row >= 0:
            self.index.unplace(row)

    # -- liveness ----------------------------------------------------------------

    def locate(self, block: BlockId) -> str | None:
        """Node currently serving a block, or None if unavailable.

        A block on a dead-but-undetected node is already unavailable to
        readers even though the NameNode hasn't flagged it missing yet.
        """
        row = self.index.row_of(block)
        if row < 0:
            return None
        node_idx = self.index.node[row]
        if node_idx < 0 or not self.index.node_alive[node_idx]:
            return None
        return self.index.node_ids[node_idx]

    def kill_node(self, node_id: str) -> list[BlockId]:
        """Mark a node dead (blocks not yet missing until detection)."""
        node_idx = self.index.node_index[node_id]
        if not self.index.node_alive[node_idx]:
            return []
        self.index.node_alive[node_idx] = False
        self.undetected_dead.add(node_id)
        rows = self.index.sort_rows(self.index.rows_on_node(node_idx))
        blocks = self.index.blocks_of_rows(rows)
        self._kill_cache[node_id] = (len(blocks), blocks)
        return blocks

    def detect_failures(self, node_id: str) -> list[BlockId]:
        """Heartbeat expiry: the node's blocks become officially missing."""
        if node_id not in self.undetected_dead:
            return []
        self.undetected_dead.discard(node_id)
        node_idx = self.index.node_index[node_id]
        cached = self._kill_cache.pop(node_id, None)
        rows = self.index.drop_node_rows(node_idx, mark_missing=True)
        if cached is not None and cached[0] == rows.size:
            # No block left the dead node since the kill (removals are
            # the only possible change), so the kill-time list stands.
            return cached[1]
        return self.index.blocks_of_rows(self.index.sort_rows(rows))

    def detection_pending(self) -> bool:
        """Dead-but-undetected nodes still holding blocks (O(#dead))."""
        counts = self.index.node_block_count
        node_index = self.index.node_index
        return any(counts[node_index[n]] > 0 for n in self.undetected_dead)

    def blocks_on_node(self, node_id: str) -> list[BlockId]:
        """The node's resident blocks in BlockId order."""
        index = self.index
        rows = index.sort_rows(index.rows_on_node(index.node_index[node_id]))
        return index.blocks_of_rows(rows)

    def node_block_counts(self) -> dict[str, int]:
        counts = self.index.node_block_count
        return {
            node_id: int(counts[i])
            for i, node_id in enumerate(self.index.node_ids)
        }

    # -- stripe-level views (used by the BlockFixer) --------------------------------

    def available_positions(self, stripe: Stripe) -> dict[int, str]:
        """position -> node for every currently readable stored block."""
        return self.index.available_positions(stripe)

    def readable_bits(self, stripe: Stripe, exclude_node: str | None = None) -> int:
        return self.index.stripe_readable_bits(
            stripe,
            -1 if exclude_node is None else self.index.node_index[exclude_node],
        )

    def missing_positions(self, stripe: Stripe) -> list[int]:
        return self.index.missing_positions(stripe)

    def stripe_node_set(self, stripe: Stripe) -> set[str]:
        """Nodes already holding any placed block of the stripe."""
        return self.index.stripe_node_set(stripe)

    def repair_queue(self, in_repair: set[BlockId]) -> list[RepairQueueEntry]:
        """Bulk repair-queue construction for a BlockFixer scan pass."""
        exclude = None
        if in_repair:
            rows = [self.index.row_of(b) for b in in_repair]
            exclude = np.asarray(
                [r for r in rows if r >= 0], dtype=np.int64
            )
        return self.index.build_repair_queue(exclude)

    def fsck(self) -> dict[str, int]:
        """Cluster health summary: stored, missing, dead-node counts."""
        return self.index.fsck()
