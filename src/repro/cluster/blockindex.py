"""Columnar block metadata: the simulator's struct-of-arrays block map.

The paper's production setting is a ~3000-node warehouse with tens of
millions of blocks and a median of ~50k block repairs per day; tracking
every block through per-object Python dicts caps realistic simulations
at a few tens of thousands of blocks.  The queries that dominate
simulator time — failure detection, fsck, repair-queue construction —
are *scans*, and (as Polynesia argues for analytical scans generally) a
columnar struct-of-arrays layout is the right representation for them.

``BlockIndex`` stores one row per stripe position, allocated as a
contiguous slab of ``n`` rows when the stripe registers, so
``row = slab_base + position``: the NameNode names a block by
``(stripe, position)`` and finds its row from ``stripe_rows``.  Columns:

* ``node``      — index of the DataNode holding the block, or -1
* ``missing``   — the NameNode has declared the block missing
* ``in_repair`` — claimed by :meth:`BlockIndex.build_repair_queue`
  until :meth:`BlockIndex.release`: a block is dispatched once
* ``sid``       — stripe id (index into the registration-ordered table)
* ``pos``       — position within the stripe
* ``kind``      — data / global parity / local parity

Node liveness/decommission flags and per-node block counters are
columnar too, so ``kill_node``/``detect_failures``/``fsck`` and the
bulk repair-queue builder are numpy kernels over the whole cluster
instead of Python loops over dicts and sets.

Virtual (zero-padding) positions own rows but are never placed, so the
stored/available masks exclude them for free.

Erasure patterns leave this module as int bitmasks (bit ``p`` set iff
position ``p``; :func:`repro.codes.base.mask_of`), the form the
:class:`~repro.codes.engine.RepairPlanner` keys on: repair-queue entries
carry their claimed/missing/usable masks as packed.  The packing is
vectorised int64, which is why ``register_stripe`` rejects stripes wider
than 62 blocks (the paper's codes have n ≤ 16).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .blocks import BlockId, Stripe, block_kind

__all__ = ["BlockIndex", "RepairQueueEntry"]

KIND_NAMES = ("data", "parity", "local_parity")
_KIND_CODE = {name: code for code, name in enumerate(KIND_NAMES)}

#: Widest stripe the index accepts: pattern bitmasks are packed into
#: int64 columns, and bit 62 is the last one below the sign bit.
_MAX_STRIPE_WIDTH = 62


class RepairQueueEntry(NamedTuple):
    """One dirty stripe of a BlockFixer scan, fully resolved.

    ``claimed`` is the bitmask of the missing positions *not* already
    under repair (what the scan claims); ``missing`` is the bitmask of
    every missing position of the stripe; ``usable`` is the decoder's
    view as a bitmask: readable positions plus known-zero padding.
    """

    stripe: Stripe
    claimed: int
    missing: int
    usable: int


class BlockIndex:
    """Struct-of-arrays block→placement map with vectorized scans."""

    def __init__(self, node_ids: list[str], initial_rows: int = 1024):
        if not node_ids:
            raise ValueError("cluster needs at least one DataNode")
        self.node_ids: list[str] = list(node_ids)
        self.node_index: dict[str, int] = {
            node_id: i for i, node_id in enumerate(node_ids)
        }
        num_nodes = len(node_ids)
        self.node_alive = np.ones(num_nodes, dtype=bool)
        self.node_decommissioning = np.zeros(num_nodes, dtype=bool)
        self.node_block_count = np.zeros(num_nodes, dtype=np.int64)

        capacity = max(int(initial_rows), 16)
        self.node = np.full(capacity, -1, dtype=np.int32)
        self.missing = np.zeros(capacity, dtype=bool)
        self.in_repair = np.zeros(capacity, dtype=bool)
        self.sid = np.zeros(capacity, dtype=np.int32)
        self.pos = np.zeros(capacity, dtype=np.int16)
        self.kind = np.zeros(capacity, dtype=np.int8)
        self.rows_used = 0

        # Stripe table (registration order).  Bases/widths live in plain
        # lists (O(1) appends, fast scalar reads) with numpy mirrors
        # rebuilt lazily for the vectorized builders.
        self.stripes: list[Stripe] = []
        self._base_list: list[int] = []
        self._n_list: list[int] = []
        self._base_array: np.ndarray | None = None
        self._n_array: np.ndarray | None = None
        self._stripe_files: list[str] = []
        self._stripe_indices: list[int] = []
        self._virtual_bits: list[int] = []
        self._sid_by_key: dict[tuple[str, int], int] = {}
        # Lexicographic rank of each stripe key, rebuilt lazily: block
        # ordering is (file_name, stripe_index, position) and scans must
        # return blocks in exactly that order.
        self._stripe_rank: np.ndarray | None = None
        # Per-code kind row template, computed once per code object.
        self._kind_template: dict[int, np.ndarray] = {}

        self.stored_count = 0
        self.missing_count = 0
        self.in_repair_count = 0

    # -- growth ---------------------------------------------------------------

    def _ensure_capacity(self, rows: int) -> None:
        capacity = len(self.node)
        if rows <= capacity:
            return
        new_capacity = capacity
        while new_capacity < rows:
            new_capacity *= 2
        for name in ("node", "missing", "in_repair", "sid", "pos", "kind"):
            old = getattr(self, name)
            grown = np.full(
                new_capacity, -1 if name == "node" else 0, dtype=old.dtype
            )
            grown[:capacity] = old
            setattr(self, name, grown)

    # -- stripe registration --------------------------------------------------

    def _kinds_for(self, stripe: Stripe) -> np.ndarray:
        key = id(stripe.code)
        template = self._kind_template.get(key)
        if template is None:
            template = np.array(
                [
                    _KIND_CODE[block_kind(stripe.code, p)]
                    for p in range(stripe.code.n)
                ],
                dtype=np.int8,
            )
            self._kind_template[key] = template
        return template

    def register_stripe(self, stripe: Stripe) -> int:
        """Allocate the stripe's row slab (idempotent); returns its sid."""
        key = (stripe.file_name, stripe.index)
        sid = self._sid_by_key.get(key)
        if sid is not None:
            return sid
        n = stripe.n
        if n > _MAX_STRIPE_WIDTH:
            raise ValueError(
                f"stripe {stripe.file_name}/s{stripe.index} is {n} blocks "
                "wide: the columnar index packs erasure patterns into int64 "
                f"bitmasks and supports at most {_MAX_STRIPE_WIDTH} blocks "
                "per stripe"
            )
        sid = len(self.stripes)
        base = self.rows_used
        self._ensure_capacity(base + n)
        rows = slice(base, base + n)
        self.node[rows] = -1
        self.missing[rows] = False
        self.in_repair[rows] = False
        self.sid[rows] = sid
        self.pos[rows] = np.arange(n, dtype=np.int16)
        self.kind[rows] = self._kinds_for(stripe)
        self.rows_used = base + n
        self.stripes.append(stripe)
        self._base_list.append(base)
        self._n_list.append(n)
        self._base_array = self._n_array = None
        self._stripe_files.append(stripe.file_name)
        self._stripe_indices.append(stripe.index)
        # Precomputed so the repair-queue builder never touches the
        # Stripe object.
        self._virtual_bits.append(stripe.virtual_bits)
        self._sid_by_key[key] = sid
        self._stripe_rank = None  # ranks are stale until rebuilt
        return sid

    @property
    def stripe_base(self) -> np.ndarray:
        if self._base_array is None or len(self._base_array) != len(self._base_list):
            self._base_array = np.asarray(self._base_list, dtype=np.int64)
        return self._base_array

    @property
    def stripe_n(self) -> np.ndarray:
        if self._n_array is None or len(self._n_array) != len(self._n_list):
            self._n_array = np.asarray(self._n_list, dtype=np.int64)
        return self._n_array

    # -- ordering -------------------------------------------------------------

    def _ranks(self) -> np.ndarray:
        """Lexicographic rank per sid, cached between registrations.

        Block ordering is (file_name, stripe_index, position); a numpy
        string lexsort ranks all stripes in one vectorized pass.
        """
        if self._stripe_rank is None or len(self._stripe_rank) != len(self.stripes):
            order = np.lexsort(
                (
                    np.asarray(self._stripe_indices, dtype=np.int64),
                    np.asarray(self._stripe_files),
                )
            )
            ranks = np.empty(len(self.stripes), dtype=np.int64)
            ranks[order] = np.arange(len(self.stripes))
            self._stripe_rank = ranks
        return self._stripe_rank

    def sort_rows(self, rows: np.ndarray) -> np.ndarray:
        """Order rows by BlockId ordering: (file, stripe index, position)."""
        if rows.size == 0:
            return rows
        ranks = self._ranks()
        order = np.lexsort((self.pos[rows], ranks[self.sid[rows]]))
        return rows[order]

    def blocks_of_rows(self, rows: np.ndarray) -> list[BlockId]:
        """Materialize BlockIds for rows (already in the desired order),
        for the listings at the API edges."""
        files, indices = self._stripe_files, self._stripe_indices
        sids, positions = self.sid[rows].tolist(), self.pos[rows].tolist()
        return [
            BlockId(files[sid], indices[sid], position)
            for sid, position in zip(sids, positions)
        ]

    # -- placement ------------------------------------------------------------

    def place(self, row: int, node_idx: int) -> None:
        previous = self.node[row]
        if previous != node_idx:
            if previous >= 0:
                # Re-placement (e.g. a racing duplicate repair write):
                # the block lives on exactly one node.
                self.node_block_count[previous] -= 1
            else:
                self.stored_count += 1
            self.node[row] = node_idx
            self.node_block_count[node_idx] += 1
        if self.missing[row]:
            self.missing[row] = False
            self.missing_count -= 1

    def place_rows(self, rows: np.ndarray | slice, nodes: np.ndarray) -> None:
        """:meth:`place` for distinct ``rows`` (an index array or a
        slice), pairwise with a non-empty ``nodes``."""
        previous = self.node[rows]
        self.stored_count += len(nodes)
        if previous.max() >= 0:  # re-placements: the blocks move
            moved = previous[previous >= 0]
            self.node_block_count -= np.bincount(
                moved, minlength=len(self.node_ids)
            )
            self.stored_count -= moved.size
        self.node[rows] = nodes
        self.node_block_count += np.bincount(nodes, minlength=len(self.node_ids))
        cleared = int(np.count_nonzero(self.missing[rows]))
        if cleared:
            self.missing[rows] = False
            self.missing_count -= cleared

    def unplace(self, row: int) -> None:
        node_idx = self.node[row]
        if node_idx >= 0:
            self.node[row] = -1
            self.node_block_count[node_idx] -= 1
            self.stored_count -= 1

    def set_missing(self, row: int, flag: bool) -> None:
        if self.missing[row] != flag:
            self.missing[row] = flag
            self.missing_count += 1 if flag else -1

    def release(self, row: int) -> None:
        """Drop a row's in-repair claim (a no-op for an unclaimed row)."""
        if self.in_repair[row]:
            self.in_repair[row] = False
            self.in_repair_count -= 1

    # -- node-level scans -----------------------------------------------------

    def rows_on_node(self, node_idx: int) -> np.ndarray:
        return np.flatnonzero(self.node[: self.rows_used] == node_idx)

    def drop_node_rows(self, node_idx: int, mark_missing: bool) -> np.ndarray:
        """Vectorized detect_failures: clear placements, flag missing."""
        rows = self.rows_on_node(node_idx)
        if rows.size:
            self.node[rows] = -1
            self.stored_count -= rows.size
            self.node_block_count[node_idx] = 0
            if mark_missing:
                newly = rows[~self.missing[rows]]
                self.missing[newly] = True
                self.missing_count += newly.size
        return rows

    # -- stripe-level views ---------------------------------------------------

    def stripe_rows(self, stripe: Stripe) -> slice | None:
        sid = self._sid_by_key.get((stripe.file_name, stripe.index))
        if sid is None:
            return None
        base = self._base_list[sid]
        return slice(base, base + self._n_list[sid])

    def available_positions(self, stripe: Stripe) -> dict[int, str]:
        """position -> node id for every currently readable stored block."""
        rows = self.stripe_rows(stripe)
        if rows is None:
            return {}
        nodes = self.node[rows]
        stored = nodes >= 0
        readable = stored.copy()
        readable[stored] = self.node_alive[nodes[stored]]
        node_ids = self.node_ids
        return {
            int(p): node_ids[nodes[p]] for p in np.flatnonzero(readable)
        }

    def stripe_node_set(self, stripe: Stripe) -> set[str]:
        """Nodes holding any placed block of the stripe (alive or not)."""
        rows = self.stripe_rows(stripe)
        if rows is None:
            return set()
        nodes = self.node[rows]
        node_ids = self.node_ids
        return {node_ids[i] for i in np.unique(nodes[nodes >= 0]).tolist()}

    # -- pattern bitmasks ----------------------------------------------------

    def _slab(self, sids: np.ndarray, n: int) -> np.ndarray:
        """Row indices of a batch of width-``n`` stripes: ``(stripes, n)``."""
        return self.stripe_base[sids][:, None] + np.arange(n, dtype=np.int64)

    @staticmethod
    def _pack_bits(plane: np.ndarray) -> np.ndarray:
        """One int64 bitmask per row of a ``(stripes, n)`` boolean plane."""
        return plane @ (1 << np.arange(plane.shape[1], dtype=np.int64))

    def _readable_bits(self, slab: np.ndarray, exclude_node: int) -> np.ndarray:
        """One readable-position bitmask per row of ``slab``: a position
        is readable when its block is placed on an alive node other than
        ``exclude_node``."""
        nodes = self.node[slab]
        # One gather resolves stored + alive: appending False lets the
        # unplaced marker (-1) index the sentinel slot.
        alive_lookup = np.concatenate((self.node_alive, [False]))
        readable = alive_lookup[nodes]
        if exclude_node >= 0:
            readable &= nodes != exclude_node
        return self._pack_bits(readable)

    def stripe_readable_bits(self, stripe: Stripe, exclude_node: int = -1) -> int:
        """One stripe's current readable bitmask (0 when unregistered),
        optionally excluding ``exclude_node`` — the decommission
        planner's "never read the retiring node" constraint."""
        rows = self.stripe_rows(stripe)
        if rows is None:
            return 0
        slab = np.arange(rows.start, rows.stop)[None, :]
        return int(self._readable_bits(slab, exclude_node)[0])

    # -- cluster health -------------------------------------------------------

    def fsck(self) -> dict[str, int]:
        alive = int(self.node_alive.sum())
        return {
            "stored_blocks": int(self.stored_count),
            "missing_blocks": int(self.missing_count),
            "dead_nodes": len(self.node_ids) - alive,
            "alive_nodes": alive,
        }

    # -- the bulk repair-queue builder ---------------------------------------

    def build_repair_queue(self) -> list[RepairQueueEntry]:
        """Claim every missing block not already in repair, resolved.

        One pass over the columns builds, for every dirty stripe (in
        BlockId order): the claimed positions (``missing & ~in_repair``),
        every missing position, and the decoder-usable pattern (readable
        + virtual zero padding).  The patterns are computed as bitmasks
        on the stacked slabs and the entries carry them as they are.
        Then the claimed rows are flagged ``in_repair``.
        """
        used = self.rows_used
        pending = np.flatnonzero(self.missing[:used] & ~self.in_repair[:used])
        if pending.size == 0:
            return []
        dirty_sids = np.unique(self.sid[pending])
        ranks = self._ranks()
        dirty_sids = dirty_sids[np.argsort(ranks[dirty_sids], kind="stable")]

        entries: list[RepairQueueEntry] = []
        widths = np.unique(self.stripe_n[dirty_sids])
        for group_n in widths:
            sids = dirty_sids[self.stripe_n[dirty_sids] == group_n]
            entries.extend(self._queue_for_width(sids, int(group_n)))
        if len(entries) > 1 and widths.size > 1:
            entries.sort(
                key=lambda e: (e.stripe.file_name, e.stripe.index)
            )
        self.in_repair[pending] = True
        self.in_repair_count += pending.size
        return entries

    def _queue_for_width(self, sids: np.ndarray, n: int) -> list[RepairQueueEntry]:
        slab = self._slab(sids, n)
        readable_bits = self._readable_bits(slab, -1).tolist()
        missing = self.missing[slab]
        missing_bits = self._pack_bits(missing).tolist()
        claimed_bits = self._pack_bits(missing & ~self.in_repair[slab]).tolist()
        stripes, virtuals = self.stripes, self._virtual_bits
        return [
            RepairQueueEntry(stripes[sid], claimed, mbits, rbits | virtuals[sid])
            for sid, claimed, mbits, rbits in zip(
                sids.tolist(), claimed_bits, missing_bits, readable_bits
            )
        ]
