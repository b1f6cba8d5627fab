"""Vectorized flow-table network engine.

:class:`FlowTable` is a drop-in replacement for the reference
:class:`~repro.spec.network.Network` that stores every in-flight flow
as a row of numpy struct-of-arrays instead of a ``Transfer`` object, and
replaces the three O(flows) inner loops of the reference engine with
array operations:

* **settle** — one ``remaining -= rate * elapsed`` array operation plus
  *batched* metrics attribution (`MetricsCollector.record_reads_batch` /
  ``record_network_out_batch``): one collector call per settle instead
  of one per flow.  All flows share a single last-settle timestamp (the
  reference engine settles every flow on every churn, so per-flow
  timestamps were always equal anyway).
* **reallocate** — progressive water-filling over per-resource capacity
  and member-count arrays.  Resources (per-node NIC in/out, per-rack
  uplinks, the core switch) are interned to integer ids.  What a fill
  needs is *table state*, kept rather than rebuilt: the active-member
  count per resource moves by one flow's slots on every admission and
  removal, and the resource -> member-rows CSR (the module's one sort)
  is built when the row layout changes — an admission or a compaction —
  and reused by every completion in between, filtered by the active
  mask.  *Per-fill state* is only what a round changes (the frozen
  mask, the shrunken counts and capacities, the tie-break order), each
  created by the first round that needs it; a fill whose bottleneck
  holds every unfrozen flow — the core switch under a repair storm — is
  one round of O(F) array writes and touches none of it.  See
  :meth:`FlowTable._water_fill` for why each shortcut is exact.
* **completion** — a single *sentinel* event replaces the per-flow
  completion events.  Each reallocation computes every flow's completion
  time vectorized (``now + remaining / rate``) and schedules exactly one
  event at the minimum, eliminating the O(flows) cancel+push heap churn
  the reference engine pays on every flow start/finish/abort.  When the
  sentinel fires it completes exactly *one* due flow and re-arms, which
  reproduces the reference engine's event interleaving (completions
  there are also processed one event at a time).  Flows tied at one
  instant — a repair storm's equal flows at an equal share — cost one
  refill per instant, not one per completion: the instant's first
  firing queues every flow the current rates leave due, later firings
  pop that queue, and the refill after a removal is skipped when it
  provably changes no completion time or order — the removed flow was
  local (no network rate moves), or the last fill was one round at a
  bottleneck that stays below every other resource's ratio (every flow
  then runs at one share, which only rose) and the least remaining
  untied flow stays undue at it.  Any other removal, the instant's
  last, an admission and an abort refill as before.

Admissions at one timestamp are **coalesced**: ``start_transfer`` only
appends a row and arms a same-time flush event, so a BlockFixer scan
that launches a thousand transfers at one instant triggers one
reallocation, not a thousand.  This is exact, not an approximation — the
reference engine's intermediate reallocations live for zero simulated
time and move zero bytes.  The flush arms the sentinel in the event
queue position the burst's last admission reserved
(:meth:`~repro.cluster.sim.Simulation.reserve_seq`), where the reference
queues its completions: an outside event scheduled after the admission
for the completion instant runs after the completion in both engines.

Determinism contract (enforced by ``tests/test_flownet.py`` and
``benchmarks/bench_network.py``): flow *dynamics* — rates, remaining
bytes, completion times, and the order every callback fires in — are
bit-for-bit identical to the reference engine, including the water
filling's start-order tie-breaking.  Metric *accumulators* (byte
counters, per-node dicts, time-series buckets) are summed in batched
order, so they may differ from the reference by float re-association
only (relative ~1e-15 per settle); nothing in the simulation reads them
back, so the difference cannot feed into the dynamics.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .metrics import MetricsCollector
from .sim import Event, Simulation

__all__ = ["FlowHandle", "FlowTable"]

#: Maximum resources per flow: src NIC out, dst NIC in, core switch,
#: source rack uplink, destination rack uplink.
_RES_SLOTS = 5

_INITIAL_CAPACITY = 64


class FlowHandle:
    """What :meth:`FlowTable.start_transfer` returns (API parity with
    the reference engine's ``Transfer``)."""

    __slots__ = ("src", "dst", "size", "done")

    def __init__(self, src: str, dst: str, size: float):
        self.src = src
        self.dst = dst
        self.size = size
        self.done = False


class FlowTable:
    """Struct-of-arrays network fabric with max-min fair sharing."""

    def __init__(
        self,
        sim: Simulation,
        metrics: MetricsCollector,
        node_bandwidth: float,
        core_bandwidth: float,
        rack_of: dict[str, int] | None = None,
        rack_bandwidth: float | None = None,
    ):
        if node_bandwidth <= 0 or core_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if rack_bandwidth is not None and rack_bandwidth <= 0:
            raise ValueError("rack bandwidth must be positive when set")
        self.sim = sim
        self.metrics = metrics
        self.node_bandwidth = node_bandwidth
        self.core_bandwidth = core_bandwidth
        self.rack_of = rack_of or {}
        self.rack_bandwidth = rack_bandwidth
        self.cross_rack_bytes = 0.0

        # -- flow columns (row order is admission order) -------------------
        cap = _INITIAL_CAPACITY
        self._src = np.zeros(cap, dtype=np.int64)  # node index
        self._dst = np.zeros(cap, dtype=np.int64)
        self._remaining = np.zeros(cap, dtype=np.float64)
        self._rate = np.zeros(cap, dtype=np.float64)
        self._tdone = np.zeros(cap, dtype=np.float64)
        self._order = np.zeros(cap, dtype=np.int64)  # tie order
        self._res = np.full((cap, _RES_SLOTS), -1, dtype=np.int64)
        self._local = np.zeros(cap, dtype=bool)
        self._disk = np.zeros(cap, dtype=bool)
        self._xr = np.zeros(cap, dtype=bool)  # cross-rack
        self._active = np.zeros(cap, dtype=bool)
        self._on_complete: list[Callable[[], None] | None] = [None] * cap
        self._on_fail: list[Callable[[], None] | None] = [None] * cap
        self._handles: list[FlowHandle | None] = [None] * cap
        self._n = 0  # rows in use until compaction
        self._active_count = 0

        # -- interning -----------------------------------------------------
        self._node_index: dict[str, int] = {}
        self._node_names: list[str] = []
        self._gid_out: list[int] = []  # per node index
        self._gid_in: list[int] = []
        self._gid_core: int | None = None
        self._gid_rackout: dict[object, int] = {}
        self._gid_rackin: dict[object, int] = {}
        self._res_capacity = np.zeros(_INITIAL_CAPACITY, dtype=np.float64)
        # Active member flows per resource, kept by _append_row/_remove_row.
        self._res_count = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._num_resources = 0

        # -- derived from row storage, dropped when it changes ---------------
        # Both are None with no flow in flight: _reallocate drops them
        # when the table drains.
        self._rows: np.ndarray | None = None  # active rows
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

        # -- per-node flow index (row ids; stale ids filtered lazily) ------
        self._rows_by_node: dict[int, list[int]] = {}

        # -- scheduling state ------------------------------------------------
        self._last_time = 0.0
        self._dirty = False
        self._flush_event: Event | None = None
        self._flush_seq = 0  # queue position of the burst's last admission
        self._sentinel: Event | None = None
        self._abort_depth = 0

        # -- the instant's tied completions (see _on_sentinel) ----------------
        self._fill_b = -1  # the last fill's one-round bottleneck, else -1
        self._tied = np.zeros(0, dtype=np.int64)  # rows due now, next last
        self._tied_left = 0  # how many of them are still queued
        self._tied_floor = np.inf  # lowest capacity/count off _fill_b
        self._tied_min_rem = np.inf  # least remaining of untied network rows

        # -- observability -------------------------------------------------
        self.reallocations = 0
        self.settles = 0
        self.admissions = 0
        self.admissions_coalesced = 0
        self.fill_rounds = 0  # water-filling rounds over all reallocations
        self.csr_builds = 0  # member-CSR builds (see _member_csr)

    # -- public API ---------------------------------------------------------

    def start_transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        on_complete: Callable[[], None],
        on_fail: Callable[[], None] | None = None,
        disk_read: bool = False,
    ) -> FlowHandle:
        """Begin moving ``nbytes`` from ``src`` to ``dst``.

        Same contract as the reference engine: ``disk_read=True`` marks
        an HDFS block read, local transfers (src == dst) skip the
        network but still hit the disk, zero-byte transfers complete on
        a zero-delay event without entering the flow table.
        """
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        handle = FlowHandle(src, dst, nbytes)
        if nbytes == 0:
            self.sim.schedule(0.0, lambda: self._finish(handle, on_complete))
            return handle
        self._settle()
        self._append_row(handle, src, dst, nbytes, on_complete, on_fail, disk_read)
        self.admissions += 1
        if self._dirty:
            self.admissions_coalesced += 1
        elif self._sentinel is not None and self._sentinel.time == self.sim.now:
            # Another flow completes at this very instant.  Reallocate
            # synchronously (reference-engine behaviour) so the re-armed
            # sentinel keeps the completion's event-queue position
            # relative to anything else this callback schedules; the
            # deferred flush would push it behind them.
            self._reallocate()
            return handle
        else:
            self._dirty = True
            self._flush_event = self.sim.schedule(0.0, self._flush)
        # The flush arms the sentinel in this queue position: where the
        # reference engine's reallocation here queues its completions,
        # ahead of anything scheduled after this admission.
        self._flush_seq = self.sim.reserve_seq()
        return handle

    def abort_node(self, node_id: str) -> None:
        """Kill every flow touching a node (its NIC is gone)."""
        node = self._node_index.get(node_id)
        victims: list[int] = []
        if node is not None:
            stale = self._rows_by_node.get(node)
            if stale:
                victims = [r for r in stale if self._active[r]]
                if victims:
                    self._rows_by_node[node] = list(victims)
                else:
                    del self._rows_by_node[node]
        if not victims:
            return
        self._settle()
        self._abort_depth += 1
        try:
            for row in victims:
                if not self._active[row]:
                    continue  # a previous victim's on_fail raced it away
                on_fail = self._on_fail[row]
                self._remove_row(row)
                if on_fail is not None:
                    on_fail()
        finally:
            self._abort_depth -= 1
        self._dirty = False
        self._reallocate()

    @property
    def active_flow_count(self) -> int:
        return self._active_count

    def current_flows(self) -> list[tuple[str, str, float, float, bool]]:
        """(src, dst, remaining, rate, local) per active flow, in start
        order.  Rates are only meaningful once the pending same-time
        flush has run (i.e. after the next event is processed), and are
        exact only once the instant's last completion has refilled:
        completions tied at one instant skip the refills in between."""
        rows = np.flatnonzero(self._active[: self._n])
        return [
            (
                self._node_names[self._src[r]],
                self._node_names[self._dst[r]],
                float(self._remaining[r]),
                float(self._rate[r]),
                bool(self._local[r]),
            )
            for r in rows
        ]

    # -- interning ------------------------------------------------------------

    def _resize_resources(self, size: int) -> None:
        """Every per-resource array is sized here, together."""
        num = self._num_resources
        for name in ("_res_capacity", "_res_count"):
            old = getattr(self, name)
            grown = np.zeros(size, dtype=old.dtype)
            grown[:num] = old[:num]
            setattr(self, name, grown)

    def _intern_resource(self, capacity: float) -> int:
        gid = self._num_resources
        if gid == self._res_capacity.size:
            self._resize_resources(gid * 2)
        self._res_capacity[gid] = capacity
        self._num_resources = gid + 1
        return gid

    def _intern_node(self, node_id: str) -> int:
        index = self._node_index.get(node_id)
        if index is None:
            index = len(self._node_names)
            self._node_index[node_id] = index
            self._node_names.append(node_id)
            self._gid_out.append(self._intern_resource(self.node_bandwidth))
            self._gid_in.append(self._intern_resource(self.node_bandwidth))
        return index

    def _rack_gid(self, table: dict[object, int], rack: object) -> int:
        gid = table.get(rack)
        if gid is None:
            assert self.rack_bandwidth is not None
            gid = self._intern_resource(self.rack_bandwidth)
            table[rack] = gid
        return gid

    def _is_cross_rack(self, src: str, dst: str) -> bool:
        if not self.rack_of:
            return True  # flat topology: every remote flow hits the core
        return self.rack_of.get(src) != self.rack_of.get(dst)

    # -- row management -------------------------------------------------------

    def _grow(self) -> None:
        cap = self._src.size * 2
        for name in ("_src", "_dst", "_order"):
            grown = np.zeros(cap, dtype=np.int64)
            grown[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, grown)
        for name in ("_remaining", "_rate", "_tdone"):
            grown = np.zeros(cap, dtype=np.float64)
            grown[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, grown)
        for name in ("_local", "_disk", "_xr", "_active"):
            grown = np.zeros(cap, dtype=bool)
            grown[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, grown)
        res = np.full((cap, _RES_SLOTS), -1, dtype=np.int64)
        res[: self._n] = self._res[: self._n]
        self._res = res
        pad = cap - len(self._on_complete)
        self._on_complete.extend([None] * pad)
        self._on_fail.extend([None] * pad)
        self._handles.extend([None] * pad)

    def _compact(self) -> None:
        """Drop completed rows, preserving start order of the survivors."""
        keep = np.flatnonzero(self._active[: self._n])
        m = keep.size
        for name in ("_src", "_dst", "_order"):
            getattr(self, name)[:m] = getattr(self, name)[keep]
        for name in ("_remaining", "_rate", "_tdone"):
            getattr(self, name)[:m] = getattr(self, name)[keep]
        self._res[:m] = self._res[keep]
        self._on_complete[:m] = [self._on_complete[r] for r in keep]
        self._on_fail[:m] = [self._on_fail[r] for r in keep]
        self._handles[:m] = [self._handles[r] for r in keep]
        self._on_complete[m : self._n] = [None] * (self._n - m)
        self._on_fail[m : self._n] = [None] * (self._n - m)
        self._handles[m : self._n] = [None] * (self._n - m)
        for name in ("_local", "_disk", "_xr"):
            getattr(self, name)[:m] = getattr(self, name)[keep]
        self._active[:m] = True
        self._active[m : self._n] = False
        self._n = m
        self._rows = self._csr = None
        self._tied_left = 0
        index: dict[int, list[int]] = {}
        # Rebuilding the node->rows index after compaction is O(F) on a
        # ragged dict-of-lists; it runs once per compaction (not per
        # tick) and numpy offers no grouped-append, so the scalar loop
        # stays.
        for row in range(m):
            index.setdefault(int(self._src[row]), []).append(row)
            if self._dst[row] != self._src[row]:
                index.setdefault(int(self._dst[row]), []).append(row)
        self._rows_by_node = index

    def _append_row(
        self,
        handle: FlowHandle,
        src: str,
        dst: str,
        nbytes: float,
        on_complete: Callable[[], None],
        on_fail: Callable[[], None] | None,
        disk_read: bool,
    ) -> int:
        if (
            self._abort_depth == 0
            and self._n > 64
            and self._active_count * 2 < self._n
        ):
            self._compact()
        if self._n == self._src.size:
            self._grow()
        row = self._n
        self._n += 1
        self._rows = self._csr = None
        self._tied_left = 0
        src_i = self._intern_node(src)
        dst_i = self._intern_node(dst)
        local = src == dst
        self._src[row] = src_i
        self._dst[row] = dst_i
        self._remaining[row] = nbytes
        self._rate[row] = 0.0
        self._local[row] = local
        self._disk[row] = disk_read
        cross = self._is_cross_rack(src, dst)
        self._xr[row] = (not local) and bool(self.rack_of) and cross
        res = self._res[row]
        res[:] = -1
        if not local:
            # Slot order mirrors the reference engine's _resources_for;
            # per-reallocation first-seen order (the water filling's
            # tie-break) scans these slots row-major.
            gids = [self._gid_out[src_i], self._gid_in[dst_i]]
            if cross:
                if self._gid_core is None:
                    self._gid_core = self._intern_resource(self.core_bandwidth)
                gids.append(self._gid_core)
                if self.rack_of and self.rack_bandwidth is not None:
                    gids.append(
                        self._rack_gid(self._gid_rackout, self.rack_of.get(src))
                    )
                    gids.append(
                        self._rack_gid(self._gid_rackin, self.rack_of.get(dst))
                    )
            for slot, gid in enumerate(gids):  # <= 5 scalar updates
                res[slot] = gid
                self._res_count[gid] += 1
        self._on_complete[row] = on_complete
        self._on_fail[row] = on_fail
        self._handles[row] = handle
        self._active[row] = True
        self._active_count += 1
        self._rows_by_node.setdefault(src_i, []).append(row)
        if dst_i != src_i:
            self._rows_by_node.setdefault(dst_i, []).append(row)
        return row

    def _remove_row(self, row: int) -> None:
        self._active[row] = False
        self._active_count -= 1
        self._rows = None
        for gid in self._res[row].tolist():
            if gid >= 0:
                self._res_count[gid] -= 1
        handle = self._handles[row]
        if handle is not None:
            handle.done = True  # reference Transfer.done semantics
        self._on_complete[row] = None
        self._on_fail[row] = None
        self._handles[row] = None
        # _rows_by_node keeps the stale id until the next abort filter or
        # compaction; both are bounded by the table size.

    # -- zero-byte completion ---------------------------------------------------

    def _finish(self, handle: FlowHandle, on_complete: Callable[[], None]) -> None:
        if handle.done:
            return
        handle.done = True
        on_complete()

    # -- settle -----------------------------------------------------------------

    def _settle(self) -> None:
        """Progress every flow to the current time; attribute bytes in
        one batched metrics call per category."""
        now = self.sim.now
        start = self._last_time
        self._last_time = now
        if now <= start or self._active_count == 0:
            return
        self.settles += 1
        elapsed = now - start
        rows = self._active_rows()
        moved = np.minimum(self._remaining[rows], self._rate[rows] * elapsed)
        self._remaining[rows] -= moved
        pos = moved > 0
        if not pos.any():
            return
        rows = rows[pos]
        moved = moved[pos]
        disk = self._disk[rows]
        if disk.any():
            self.metrics.record_reads_batch(
                self._node_totals(self._src[rows[disk]], moved[disk]),
                float(moved[disk].sum()),
                start,
                now,
            )
        remote = ~self._local[rows]
        if remote.any():
            self.metrics.record_network_out_batch(
                self._node_totals(self._src[rows[remote]], moved[remote]),
                float(moved[remote].sum()),
                start,
                now,
            )
        xr = self._xr[rows]
        if xr.any():
            self.cross_rack_bytes += float(moved[xr].sum())

    def _node_totals(
        self, nodes: np.ndarray, nbytes: np.ndarray
    ) -> list[tuple[str, float]]:
        totals = np.bincount(nodes, weights=nbytes)
        hit = np.flatnonzero(totals)
        return [(self._node_names[i], float(totals[i])) for i in hit]

    def _attribute_residual(self, row: int, nbytes: float) -> None:
        """Flush a completing flow's rounding residue (reference-engine
        `_attribute` for a single flow over a zero-length interval)."""
        now = self.sim.now
        src = self._node_names[self._src[row]]
        if self._disk[row]:
            self.metrics.record_block_read(src, nbytes, now, now)
        if not self._local[row]:
            self.metrics.record_network_out(src, nbytes, now, now)
            if self._xr[row]:
                self.cross_rack_bytes += nbytes

    # -- reallocation -----------------------------------------------------------

    def _flush(self) -> None:
        """Fold every admission since the last reallocation in at once."""
        self._flush_event = None
        if not self._dirty:
            return
        self._dirty = False
        self._reallocate(self._flush_seq)

    def _active_rows(self) -> np.ndarray:
        """Active table rows in start order, memoised until the active
        set changes (a completion reads it three times: settle, due
        selection, and — recomputed once after the removal — the fill)."""
        if self._rows is None:
            self._rows = np.flatnonzero(self._active[: self._n])
        return self._rows

    def _reallocate(self, seq: int | None = None) -> None:
        """Vectorized progressive water-filling + sentinel re-arm (in the
        queue position ``seq`` reserved by an admission, else now)."""
        if self._sentinel is not None:
            self._sentinel.cancel()
            self._sentinel = None
        self._tied_left = 0
        self._fill_b = -1
        rows = self._active_rows()
        if rows.size == 0:
            self._rows = self._csr = None  # drained: nothing derived survives
            return
        self.reallocations += 1
        local = self._local[rows]
        loc_rows = rows[local]
        # Locals bypass sharing entirely (reference: full NIC rate) and
        # come first in the completion tie order, in start order.
        self._rate[loc_rows] = self.node_bandwidth
        self._order[loc_rows] = np.arange(loc_rows.size)
        net_rows = rows[~local]
        if net_rows.size:
            self._water_fill(net_rows, loc_rows.size)
        rates = self._rate[rows]
        if np.any(rates <= 0):
            raise RuntimeError("flow allocated zero bandwidth")
        tdone = self.sim.now + self._remaining[rows] / rates
        self._tdone[rows] = tdone
        first = float(tdone.min())
        if seq is None:
            self._sentinel = self.sim.schedule_at(first, self._on_sentinel)
        else:
            self._sentinel = self.sim.schedule_reserved(
                seq, first, self._on_sentinel
            )

    def _slots(self, rows: np.ndarray | slice) -> np.ndarray:
        """(len(rows), 5) resource ids of ``rows``; padding maps to an
        overflow bin G that sorts after, and bins beside, every real id."""
        res = self._res[rows]
        return np.where(res >= 0, res, self._num_resources)

    def _member_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(member rows grouped by resource, group bounds) over the
        current row layout — the one sort in this module.

        Built on the first multi-round fill after an admission or a
        compaction and reused by every fill until the next one:
        completions only clear ``_active`` bits, and because table rows
        are in admission order (the stable sort keeps flat scan order =
        row-major = start order) a cached group filtered by the active
        mask *is* the start-ordered member list the reference engine's
        insertion-ordered dict yields.
        """
        if self._csr is None:
            self.csr_builds += 1
            G = self._num_resources
            # uint32 keys are radix-sortable.
            flat = self._slots(slice(self._n)).astype(np.uint32).ravel()
            bounds = np.zeros(G + 2, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=G + 1), out=bounds[1:])
            self._csr = (np.argsort(flat, kind="stable") // _RES_SLOTS, bounds)
        return self._csr

    def _water_fill(self, net_rows: np.ndarray, order_base: int) -> None:
        """Progressive filling over interned resources, reproducing the
        reference engine's arithmetic — including tie-breaking by
        per-reallocation first-seen resource order and the grouped
        ``share * count`` capacity subtraction — bit for bit.

        The inputs are table state, not rebuilt per fill: ``count``
        starts as the incrementally kept ``_res_count`` and
        ``remaining`` as ``_res_capacity`` (both only ever replaced,
        never written through), and members come from the cached
        :meth:`_member_csr`.  Per-fill state is what a round changes:
        the ``frozen`` row mask, the first-seen tie-break array, and the
        shrunken ``count``/``remaining`` — each created only by a round
        that needs it.  Exactness:

        * ``count[b] == left`` means every unfrozen flow is a member of
          the bottleneck (a flow holds a resource at most once, so
          ``count[b] <= left`` always): the members are ``net_rows``
          minus the frozen ones and no CSR is consulted.  With the core
          switch under every remote flow this is the only round of most
          fills.
        * Otherwise members are the bottleneck's cached CSR group minus
          ``frozen``, which starts as ``~active`` (see
          :meth:`_member_csr`).
        * ``first`` (flat position of each resource's first slot in the
          start-ordered ``net_rows`` matrix — order-isomorphic to table
          ``row * 5 + slot`` because ``net_rows`` ascends — i.e. the
          reference dict's insertion order, fixed for the whole fill) is
          only read to break an exact ratio tie, so it is only built
          then.
        * The round that freezes the last flow returns before ``freed``,
          ``remaining`` and ``count`` are updated: nothing reads them.

        A fill whose first round holds every flow records its bottleneck
        in ``_fill_b`` for :meth:`_refill_is_idle`.
        """
        G = self._num_resources
        count = self._res_count[:G]
        remaining = self._res_capacity[:G]
        frozen = first = None
        left = net_rows.size
        counter = order_base
        while True:
            self.fill_rounds += 1
            ratio = np.where(
                count > 0, remaining / np.maximum(count, 1), np.inf
            )
            lowest = ratio.min()
            ties = np.flatnonzero(ratio == lowest)
            if ties.size > 1:
                if first is None:
                    first = self._first_seen(net_rows)
                b = ties[np.argmin(first[ties])]
            else:
                b = ties[0]
            share = remaining[b] / count[b]
            if count[b] == left:
                if frozen is None:  # round one holds every network flow
                    members = net_rows
                    self._fill_b = int(b)
                else:
                    members = net_rows[~frozen[net_rows]]
            else:
                if frozen is None:
                    frozen = ~self._active[: self._n]
                member_row, bounds = self._member_csr()
                members = member_row[bounds[b] : bounds[b + 1]]
                members = members[~frozen[members]]
            if not 0 < members.size <= left:
                # Kept counts or a stale CSR disagree with the rows.
                raise RuntimeError("water-filling made no progress")
            self._rate[members] = share
            self._order[members] = counter + np.arange(members.size)
            counter += members.size
            left -= members.size
            if not left:
                return
            freed = np.bincount(self._slots(members).ravel(), minlength=G + 1)[:G]
            remaining = remaining - share * freed
            count = count - freed
            frozen[members] = True

    def _first_seen(self, net_rows: np.ndarray) -> np.ndarray:
        """First flat position per resource over the start-ordered
        ``net_rows`` (the reference dict insertion order, min()'s
        tie-break): reversed fancy assignment, where the *first*
        occurrence lands last and wins."""
        flat = self._slots(net_rows).ravel()
        first = np.empty(self._num_resources + 1, dtype=np.int64)
        first[flat[::-1]] = np.arange(flat.size - 1, -1, -1)
        return first

    # -- sentinel ----------------------------------------------------------------

    def _on_sentinel(self) -> None:
        """Complete the (single) next due flow, then re-arm.

        One completion per firing reproduces the reference engine's
        interleaving: each completion there is its own event whose
        handler reallocates (pushing tied completions behind any events
        scheduled in between) before running the user callback.

        The first firing of an instant picks the due row by ``_tdone``
        and queues the other rows still due (:meth:`_queue_ties`); the
        instant's later firings pop that queue.  After a removal that
        leaves the queue non-empty, a refill that provably changes no
        completion time or order (:meth:`_refill_is_idle`) is skipped:
        the sentinel re-arms at now, in the queue position the
        reference's reallocation would take.  Any other removal, the
        instant's last one included, reallocates.
        """
        self._sentinel = None
        if self._dirty:
            # Defensive only: admissions while a flow is due at the
            # current instant reallocate synchronously, so a pending
            # flush implies nothing is due right now.
            self._dirty = False
            self._reallocate()
            return
        self._settle()
        rows = None
        if self._tied_left:
            self._tied_left -= 1
            row = int(self._tied[self._tied_left])
        else:
            rows = self._active_rows()
            due = rows[self._tdone[rows] == self.sim.now]
            if due.size == 0:
                return
            row = int(due[np.argmin(self._order[due])])
        residue = float(self._remaining[row])
        if residue > 0:
            self._attribute_residual(row, residue)
            self._remaining[row] = 0.0
        on_complete = self._on_complete[row]
        local = bool(self._local[row])
        self._remove_row(row)
        if rows is not None and (local or self._fill_b >= 0):
            self._queue_ties(rows, row)
        if self._tied_left and self._refill_is_idle(local):
            self._sentinel = self.sim.schedule_at(self.sim.now, self._on_sentinel)
        else:
            self._reallocate()
        if on_complete is not None:
            on_complete()

    def _queue_ties(self, rows: np.ndarray, done: int) -> None:
        """Queue the rows of ``rows`` other than ``done`` that the
        current rates leave due now, in completion order.

        Due means ``now + remaining / rate == now`` — what a refill with
        unchanged rates computes — not ``_tdone == now``: a flow whose
        completion was computed before now can carry a residue that
        puts it one ulp past now once refilled.  With a one-round fill
        at ``_fill_b`` it also keeps two bounds for the whole instant:
        the lowest ``capacity / count`` of every other resource (counts
        only fall until the next reallocation, so ratios only rise), and
        the least remaining of the network rows not queued.
        """
        now = self.sim.now
        remaining = self._remaining[rows]
        tied = now + remaining / self._rate[rows] == now
        at = np.searchsorted(rows, done)
        tied[at] = False
        queued = rows[tied]
        self._tied = queued[np.argsort(self._order[queued])[::-1]]
        self._tied_left = queued.size
        b = self._fill_b
        if b < 0 or not queued.size:
            return
        G = self._num_resources
        count = self._res_count[:G]
        ratio = np.where(
            count > 0, self._res_capacity[:G] / np.maximum(count, 1), np.inf
        )
        ratio[b] = np.inf
        self._tied_floor = ratio.min()
        untied = ~(tied | self._local[rows])
        untied[at] = False
        self._tied_min_rem = remaining[untied].min() if untied.any() else np.inf

    def _refill_is_idle(self, local: bool) -> bool:
        """Whether refilling after removing one row (``local`` or not)
        would leave every queued row due now, in queue order, and make
        no other row due now.

        * A local row holds no resource: no network rate moves, and the
          tie order only shifts the other rows' numbers down by one.
        * Otherwise the last fill was one round at ``b = _fill_b`` over
          every network flow, the removed row among them.  If
          ``share = capacity[b] / count[b]`` is below every other
          resource's ratio (``_tied_floor`` bounds them from below), the
          refill is again one round at ``b``: every network flow runs
          at ``share``, which only rose, so queued rows stay due and
          keep their order (locals first, then row order), and no other
          network row becomes due unless the least remaining one does.
          With ``count[b] == 0`` no network flow is left.
        """
        if local:
            return True
        b = self._fill_b
        if b < 0:
            return False
        count = self._res_count[b]
        if count == 0:
            return True
        share = self._res_capacity[b] / count
        now = self.sim.now
        return bool(
            share < self._tied_floor and now + self._tied_min_rem / share != now
        )
