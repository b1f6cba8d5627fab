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

Every per-block call names the block by ``(stripe, position)``; the
columnar NameNode turns that into a row, and ``BlockId`` is built only
for the listings at the edges (``blocks_on_node``,
``missing_block_ids``, fsck and data-loss reports).  ``repair_queue``
claims the blocks it returns; a repair task lets go with ``release``,
or ``resolve`` once the block is rebuilt.
"""

from __future__ import annotations

from typing import Sequence

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
    #: Node ids in node-index order: placement speaks node indices.
    node_ids: list[str]

    # -- topology ---------------------------------------------------------------

    def alive_nodes(self):
        return [n for n in self.nodes.values() if n.alive]

    def placement_candidates(self) -> np.ndarray:
        """Indices of the nodes eligible to receive new blocks (alive,
        not retiring), ascending."""
        return np.flatnonzero(
            [n.alive and not n.decommissioning for n in self.nodes.values()]
        )

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
        if not candidates.size:
            raise PlacementError("no alive DataNodes")
        distinct = len(candidates) >= len(positions)
        chosen = self.rng.choice(
            len(candidates), size=len(positions), replace=not distinct
        )
        self.place_blocks(stripe, positions, candidates[chosen])

    def place_blocks(
        self, stripe: Stripe, positions: Sequence[int], nodes: np.ndarray
    ) -> None:
        """Store the blocks at ``positions`` (ascending) on the node
        indices ``nodes``, pairwise; raises :class:`PlacementError` if a
        node is dead."""
        node_ids = self.node_ids
        for position, node in zip(positions, nodes.tolist()):
            self.add_block(stripe, position, node_ids[node])

    def stripe_nodes(self, stripe: Stripe) -> np.ndarray:
        """Indices of the nodes holding a placed block of the stripe;
        an entry may be -1 (an unplaced position)."""
        node_index = {node_id: i for i, node_id in enumerate(self.node_ids)}
        return np.array(
            [node_index[node_id] for node_id in self.stripe_node_set(stripe)],
            dtype=np.int64,
        )

    # -- liveness ----------------------------------------------------------------

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
        self.node_ids = self.index.node_ids
        self.nodes: dict[str, DataNode] = {
            node_id: DataNode(node_id, self.index, i)
            for i, node_id in enumerate(node_ids)
        }
        self.rack_of = rack_of or {}
        self.rng = rng
        self.stripes: dict[tuple[str, int], Stripe] = {}
        self.undetected_dead: set[str] = set()

    # -- placement ----------------------------------------------------------------

    def register_stripe(self, stripe: Stripe) -> None:
        self.index.register_stripe(stripe)  # rejects stripes it cannot index
        super().register_stripe(stripe)

    def _row(self, stripe: Stripe, position: int) -> int:
        """The index row of a stripe position."""
        rows = self.index.stripe_rows(stripe)
        if rows is None or not 0 <= position < rows.stop - rows.start:
            raise KeyError(
                f"{BlockId(stripe.file_name, stripe.index, position)} belongs "
                "to no registered stripe; register it first"
            )
        return rows.start + position

    def add_block(self, stripe: Stripe, position: int, node_id: str) -> None:
        node_idx = self.index.node_index[node_id]
        if not self.index.node_alive[node_idx]:
            raise PlacementError(
                f"cannot place {BlockId(stripe.file_name, stripe.index, position)} "
                f"on dead node {node_id}"
            )
        self.index.place(self._row(stripe, position), node_idx)

    def placement_candidates(self) -> np.ndarray:
        # The flatnonzero of a 1-D mask, minus its ravel wrapper: this
        # runs once per placement, ~10^5 times in a large load.
        index = self.index
        return (index.node_alive & ~index.node_decommissioning).nonzero()[0]

    def place_blocks(
        self, stripe: Stripe, positions: Sequence[int], nodes: np.ndarray
    ) -> None:
        index = self.index
        count = len(positions)
        if np.count_nonzero(index.node_alive[nodes]) != count:
            raise PlacementError(
                f"cannot place blocks of {stripe.file_name}/s{stripe.index} "
                "on a dead node"
            )
        rows = index.stripe_rows(stripe)
        if rows is None:
            raise KeyError(
                f"stripe {stripe.file_name}/s{stripe.index} is not "
                "registered; register it first"
            )
        if not count:
            return
        first = rows.start + positions[0]
        if positions[-1] - positions[0] == count - 1:
            # Ascending and this close together: one run of rows, which
            # a slice addresses without a fancy-index round trip.
            index.place_rows(slice(first, first + count), nodes)
        else:
            index.place_rows(rows.start + np.asarray(positions), nodes)

    def stripe_nodes(self, stripe: Stripe) -> np.ndarray:
        rows = self.index.stripe_rows(stripe)
        if rows is None:
            return np.empty(0, dtype=np.int32)
        return self.index.node[rows]

    def remove_block(self, stripe: Stripe, position: int) -> None:
        self.index.unplace(self._row(stripe, position))

    # -- liveness ----------------------------------------------------------------

    def placement_of(self, stripe: Stripe, position: int) -> str | None:
        """Node the block is placed on, alive or not (None if unplaced)."""
        node_idx = self.index.node[self._row(stripe, position)]
        return self.node_ids[node_idx] if node_idx >= 0 else None

    def locate(self, stripe: Stripe, position: int) -> str | None:
        """Node currently serving a block, or None if unavailable.

        A block on a dead-but-undetected node is already unavailable to
        readers even though the NameNode hasn't flagged it missing yet.
        """
        node_idx = self.index.node[self._row(stripe, position)]
        if node_idx < 0 or not self.index.node_alive[node_idx]:
            return None
        return self.node_ids[node_idx]

    def kill_node(self, node_id: str) -> int:
        """Mark a node dead (blocks not yet missing until detection);
        returns how many blocks it held."""
        node_idx = self.index.node_index[node_id]
        if not self.index.node_alive[node_idx]:
            return 0
        self.index.node_alive[node_idx] = False
        self.undetected_dead.add(node_id)
        return int(self.index.node_block_count[node_idx])

    def detect_failures(self, node_id: str) -> int:
        """Heartbeat expiry: the node's blocks become officially missing;
        returns how many."""
        if node_id not in self.undetected_dead:
            return 0
        self.undetected_dead.discard(node_id)
        node_idx = self.index.node_index[node_id]
        return int(self.index.drop_node_rows(node_idx, mark_missing=True).size)

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

    def is_missing(self, stripe: Stripe, position: int) -> bool:
        return bool(self.index.missing[self._row(stripe, position)])

    def mark_missing(self, stripe: Stripe, position: int) -> None:
        self.index.set_missing(self._row(stripe, position), True)

    def missing_block_ids(self) -> list[BlockId]:
        """Every missing block, in BlockId order."""
        index = self.index
        rows = np.flatnonzero(index.missing[: index.rows_used])
        return index.blocks_of_rows(index.sort_rows(rows))

    def stripe_node_set(self, stripe: Stripe) -> set[str]:
        """Nodes already holding any placed block of the stripe."""
        return self.index.stripe_node_set(stripe)

    def repair_queue(self) -> list[RepairQueueEntry]:
        """A BlockFixer scan pass: claim and resolve every missing block
        not already under repair, in one columnar pass."""
        return self.index.build_repair_queue()

    def release(self, stripe: Stripe, position: int) -> None:
        """The block's repair task lets go; ``missing`` is untouched."""
        self.index.release(self._row(stripe, position))

    def resolve(self, stripe: Stripe, position: int) -> None:
        """Rebuilt or written off: neither missing nor under repair."""
        row = self._row(stripe, position)
        self.index.set_missing(row, False)
        self.index.release(row)

    @property
    def in_repair_count(self) -> int:
        return self.index.in_repair_count

    @property
    def missing_count(self) -> int:
        return self.index.missing_count

    def fsck(self) -> dict[str, int]:
        """Cluster health summary: stored, missing, dead-node counts."""
        return self.index.fsck()
