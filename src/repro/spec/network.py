"""Flow-level network model with max-min fair bandwidth sharing.

Transfers are fluid flows constrained by three resource classes: the
sender's NIC, the receiver's NIC, and a shared top-level switch (the
paper repeatedly notes that "hundreds of machines can share a single
top-level switch which becomes saturated", Section 5.2.3).  Rates are
recomputed by progressive water-filling whenever a flow starts, finishes
or is aborted; between recomputations every flow progresses linearly, so
completion times are exact.

Every byte a flow moves is attributed to the metrics collector over the
exact interval it was in flight, which is what makes the Figure 5 time
series faithful.

This class is the *executable specification* of the fabric: readable
per-flow Python whose arithmetic — including the order every float
accumulation happens in — defines the contract the vectorized
:class:`~repro.cluster.flownet.FlowTable` engine reproduces bit for
bit.  Keep the two in lockstep: any semantic change here must be
mirrored there (the differential tests in ``tests/test_flownet.py``
enforce it).
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.metrics import MetricsCollector
from repro.cluster.sim import Event, Simulation

__all__ = ["Transfer", "Network"]


class Transfer:
    """One in-flight flow.  Use :meth:`Network.start_transfer` to create."""

    __slots__ = (
        "src",
        "dst",
        "size",
        "remaining",
        "rate",
        "last_update",
        "on_complete",
        "on_fail",
        "completion_event",
        "started_at",
        "disk_read",
        "local",
        "done",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        size: float,
        on_complete: Callable[[], None],
        on_fail: Callable[[], None] | None,
        disk_read: bool,
        started_at: float,
    ):
        self.src = src
        self.dst = dst
        self.size = size
        self.remaining = size
        self.rate = 0.0
        self.last_update = started_at
        self.on_complete = on_complete
        self.on_fail = on_fail
        self.completion_event: Event | None = None
        self.started_at = started_at
        self.disk_read = disk_read
        self.local = src == dst
        self.done = False


class Network:
    """The cluster fabric: per-node NICs plus one shared core switch."""

    def __init__(
        self,
        sim: Simulation,
        metrics: MetricsCollector,
        node_bandwidth: float,
        core_bandwidth: float,
        rack_of: dict[str, int] | None = None,
        rack_bandwidth: float | None = None,
    ):
        """``rack_of`` maps node ids to rack indices.  When provided,
        intra-rack flows bypass the core switch and cross-rack flows are
        additionally constrained by per-rack uplinks of ``rack_bandwidth``
        (when set) — the Section 4 cross-rack bandwidth cap."""
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
        # Insertion-ordered so every iteration (settling, allocation,
        # bottleneck scans) visits flows in start order.  A plain set of
        # Transfer objects iterates in id()-hash order, which varies
        # between interpreter runs and made simulations irreproducible
        # at the float-accumulation level.
        self.flows: dict[Transfer, None] = {}
        # Per-node flow index (insertion-ordered, hence start-ordered):
        # ``abort_node`` reads its victims here instead of scanning every
        # flow, so killing a whole rack of nodes costs O(flows on the
        # rack), not O(nodes x all flows).
        self._flows_by_node: dict[str, dict[Transfer, None]] = {}

    def _is_cross_rack(self, flow: Transfer) -> bool:
        if not self.rack_of:
            return True  # flat topology: every remote flow hits the core
        return self.rack_of.get(flow.src) != self.rack_of.get(flow.dst)

    def _resources_for(self, flow: Transfer) -> list[tuple]:
        resources = [("out", flow.src), ("in", flow.dst)]
        if self._is_cross_rack(flow):
            resources.append(("core", None))
            if self.rack_of and self.rack_bandwidth is not None:
                resources.append(("rackout", self.rack_of.get(flow.src)))
                resources.append(("rackin", self.rack_of.get(flow.dst)))
        return resources

    def _capacity_of(self, resource: tuple) -> float:
        kind = resource[0]
        if kind == "core":
            return self.core_bandwidth
        if kind in ("rackout", "rackin"):
            assert self.rack_bandwidth is not None
            return self.rack_bandwidth
        return self.node_bandwidth

    # -- public API -----------------------------------------------------------

    def start_transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        on_complete: Callable[[], None],
        on_fail: Callable[[], None] | None = None,
        disk_read: bool = False,
    ) -> Transfer:
        """Begin moving ``nbytes`` from ``src`` to ``dst``.

        ``disk_read=True`` marks the flow as an HDFS block read, counted
        in the paper's *HDFS Bytes Read* metric.  Local transfers
        (src == dst) skip the network but still hit the disk.
        """
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        flow = Transfer(
            src, dst, nbytes, on_complete, on_fail, disk_read, self.sim.now
        )
        if nbytes == 0:
            self.sim.schedule(0.0, lambda: self._finish(flow))
            return flow
        self._settle()
        self.flows[flow] = None
        self._index_add(flow)
        self._reallocate()
        return flow

    def abort_node(self, node_id: str) -> None:
        """Kill every flow touching a node (its NIC is gone)."""
        victims = list(self._flows_by_node.get(node_id, ()))
        if not victims:
            return
        self._settle()
        for flow in victims:
            if flow.done:
                continue  # a previous victim's on_fail aborted it reentrantly
            self._remove(flow)
            if flow.completion_event is not None:
                flow.completion_event.cancel()
            flow.done = True
            if flow.on_fail is not None:
                flow.on_fail()
        self._reallocate()

    @property
    def active_flow_count(self) -> int:
        return len(self.flows)

    # -- internals ---------------------------------------------------------------

    def _index_add(self, flow: Transfer) -> None:
        for node_id in {flow.src, flow.dst}:
            self._flows_by_node.setdefault(node_id, {})[flow] = None

    def _remove(self, flow: Transfer) -> None:
        self.flows.pop(flow, None)
        for node_id in {flow.src, flow.dst}:
            index = self._flows_by_node.get(node_id)
            if index is not None:
                index.pop(flow, None)
                if not index:
                    del self._flows_by_node[node_id]

    def _finish(self, flow: Transfer) -> None:
        """Complete a zero-byte transfer (no bandwidth involved)."""
        if flow.done:
            return
        flow.done = True
        flow.on_complete()

    def _settle(self) -> None:
        """Progress every flow to the current time and attribute bytes."""
        now = self.sim.now
        for flow in self.flows:
            elapsed = now - flow.last_update
            if elapsed <= 0:
                flow.last_update = now
                continue
            moved = min(flow.remaining, flow.rate * elapsed)
            flow.remaining -= moved
            self._attribute(flow, moved, flow.last_update, now)
            flow.last_update = now

    def _attribute(
        self, flow: Transfer, moved: float, start: float, end: float
    ) -> None:
        if moved <= 0:
            return
        if flow.disk_read:
            self.metrics.record_block_read(flow.src, moved, start, end)
        if not flow.local:
            self.metrics.record_network_out(flow.src, moved, start, end)
            if self.rack_of and self._is_cross_rack(flow):
                self.cross_rack_bytes += moved

    def _reallocate(self) -> None:
        """Progressive water-filling over NIC and core constraints."""
        rates = self._max_min_rates()
        for flow, rate in rates.items():
            flow.rate = rate
            if flow.completion_event is not None:
                flow.completion_event.cancel()
            if rate <= 0:
                raise RuntimeError("flow allocated zero bandwidth")
            eta = flow.remaining / rate
            flow.completion_event = self.sim.schedule(
                eta, lambda f=flow: self._complete(f)
            )

    def _max_min_rates(self) -> dict[Transfer, float]:
        network_flows = [f for f in self.flows if not f.local]
        rates: dict[Transfer, float] = {
            f: self.node_bandwidth for f in self.flows if f.local
        }
        if not network_flows:
            return rates
        remaining: dict[tuple, float] = {}
        # Membership maps are insertion-ordered dicts (not sets) so the
        # water-filling loop below — including min()'s tie-breaking and
        # the order shares are subtracted in — is deterministic.
        members: dict[tuple, dict[Transfer, None]] = {}
        flow_resources = {flow: self._resources_for(flow) for flow in network_flows}
        for flow, resources in flow_resources.items():
            for resource in resources:
                if resource not in remaining:
                    remaining[resource] = self._capacity_of(resource)
                    members[resource] = {}
                members[resource][flow] = None
        unfrozen = len(network_flows)
        while unfrozen:
            bottleneck = min(
                (res for res in members if members[res]),
                key=lambda res: remaining[res] / len(members[res]),
            )
            frozen = tuple(members[bottleneck])
            share = remaining[bottleneck] / len(frozen)
            # Capacity freed on each resource is subtracted once per
            # resource (share x count), not once per flow: the grouped
            # form is what the vectorized FlowTable engine computes, and
            # using it here too keeps the two engines' float rounding —
            # and therefore completion times — bit-for-bit identical.
            freed: dict[tuple, int] = {}
            for flow in frozen:
                rates[flow] = share
                unfrozen -= 1
                for resource in flow_resources[flow]:
                    members[resource].pop(flow, None)
                    freed[resource] = freed.get(resource, 0) + 1
            for resource, count in freed.items():
                remaining[resource] -= share * count
            members[bottleneck] = {}
        return rates

    def _complete(self, flow: Transfer) -> None:
        if flow.done:
            return
        self._settle()
        # Flush any residual rounding so totals are exact.
        if flow.remaining > 0:
            self._attribute(flow, flow.remaining, flow.last_update, self.sim.now)
            flow.remaining = 0.0
        flow.done = True
        self._remove(flow)
        if self.flows:
            self._reallocate()
        flow.on_complete()
