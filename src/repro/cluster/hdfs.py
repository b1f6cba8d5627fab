"""The Distributed RAID File System facade (Section 3's DRFS).

``HadoopCluster`` wires the event engine, network, NameNode, JobTracker
and metrics together, and offers the file-level operations the paper's
experiments perform: create files, RAID them (instantly for experiment
setup, or via simulated MapReduce encode jobs), kill DataNodes, and read
blocks with degraded-read reconstruction.

It also provides the primitive I/O operations tasks are written in terms
of (parallel block reads, compute, block writes), so RaidNode/BlockFixer/
workload tasks stay declarative.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..codes.base import ErasureCode
from .blocks import BlockId, PayloadStore, Stripe, StoredFile
from .config import ClusterConfig
from .flownet import FlowTable
from .mapreduce import JobTracker
from .metrics import MetricsCollector
from .namenode import NameNode, PlacementError
from .sim import Simulation

__all__ = ["HadoopCluster", "DataLossError"]


class DataLossError(Exception):
    """A stripe lost more blocks than its code tolerates."""


class HadoopCluster:
    """A simulated Hadoop cluster running HDFS-RAID with a given code.

    Instantiating with an LRC gives HDFS-Xorbas; with a Reed-Solomon code
    it gives HDFS-RS — the two systems the paper compares.  The code
    object is the *only* difference, mirroring how Xorbas swaps the
    ErasureCode implementation under unchanged RaidNode/BlockFixer logic.
    """

    #: The metadata plane and the fabric every cluster is built on.
    namenode_cls = NameNode
    network_cls = FlowTable

    def __init__(self, code: ErasureCode, config: ClusterConfig, seed: int = 0):
        config.validate()
        self.code = code
        self.config = config
        self.seed = seed
        # Failure processes derive their default randomness from here, so
        # two experiments with different seeds draw different failure
        # traces even when no explicit rng is passed down.
        self.failure_seed = (
            config.failure_seed if config.failure_seed is not None else seed
        )
        self.rng = np.random.default_rng(seed)
        self.sim = Simulation()
        self.metrics = MetricsCollector(bucket_width=config.timeseries_bucket)
        node_ids = [f"node{i:03d}" for i in range(config.num_nodes)]
        # Round-robin rack assignment; with num_racks == 1 the topology is
        # flat and rack awareness is inert.
        rack_of = (
            {node_id: i % config.num_racks for i, node_id in enumerate(node_ids)}
            if config.num_racks > 1
            else None
        )
        self.namenode = self.namenode_cls(node_ids, self.rng, rack_of=rack_of)
        # Rack of each node index, for placement's rack spread.
        self._num_racks = config.num_racks
        self._node_rack = (
            np.array([rack_of[node_id] for node_id in node_ids])
            if rack_of
            else None
        )
        self.network = self.network_cls(
            self.sim,
            self.metrics,
            config.node_bandwidth,
            config.core_bandwidth,
            rack_of=rack_of,
            rack_bandwidth=config.rack_bandwidth,
        )
        self.jobtracker = JobTracker(self)
        self.files: dict[str, StoredFile] = {}
        self.data_loss_events: list[BlockId] = []
        # Every stripe's verification payload is a slot of this one store.
        self.payloads = (
            PayloadStore(code, config.payload_bytes) if config.payload_bytes else None
        )

    # ------------------------------------------------------------------ files

    def create_file(self, name: str, size_bytes: float) -> StoredFile:
        """Create an un-RAIDed file: data blocks placed, no parities yet."""
        if name in self.files:
            raise ValueError(f"file {name} already exists")
        if size_bytes <= 0:
            raise ValueError("file size must be positive")
        block_size = self.config.block_size
        total_blocks = max(1, math.ceil(size_bytes / block_size))
        stored = StoredFile(name=name, size_bytes=size_bytes)
        k = self.code.k
        for stripe_index in range(0, math.ceil(total_blocks / k)):
            data_blocks = min(k, total_blocks - stripe_index * k)
            stripe = Stripe(
                file_name=name,
                index=stripe_index,
                code=self.code,
                data_blocks=data_blocks,
                block_size=block_size,
                rng=self.rng,
                store=self.payloads,
            )
            self.namenode.register_stripe(stripe)
            self._place_positions(stripe, list(range(data_blocks)))
            stored.stripes.append(stripe)
        self.files[name] = stored
        return stored

    def raid_file_instant(self, name: str) -> None:
        """Place parity blocks without simulating the encode job.

        Used to set up experiments that start from an already-RAIDed
        cluster, as the paper's failure experiments do ("once all files
        were RAIDed, ... failure events were triggered").
        """
        stored = self.files[name]
        for stripe in stored.stripes:
            if stripe.parities_stored:
                continue
            stripe.parities_stored = True
            self._place_positions(stripe, stripe.parity_positions())
        stored.raided = True

    def raid_all_instant(self) -> None:
        for name in self.files:
            self.raid_file_instant(name)

    def _used_nodes(self, stripe: Stripe) -> np.ndarray:
        """Bool mask over node indices: nodes already holding a placed
        block of the stripe.  One trailing slot absorbs the -1 of
        unplaced positions."""
        used = np.zeros(len(self.namenode.node_ids) + 1, dtype=bool)
        used[self.namenode.stripe_nodes(stripe)] = True
        return used

    def _rack_spread_order(
        self, candidates: np.ndarray, used: np.ndarray
    ) -> np.ndarray:
        """Order candidate node indices so racks the stripe uses least
        come first.

        Section 4: "all coded blocks of a stripe are placed in different
        racks to provide higher fault tolerance" — and it is what makes
        every repair download cross-rack traffic.  The candidates are
        shuffled by one ``rng.permutation``.  With racks, a node's key is
        its rack's usage by the stripe plus its rank within its rack in
        shuffled order, and the lexsort by (key, shuffled position) is the
        greedy "take a node from the least-used rack" order.
        """
        shuffled = candidates[self.rng.permutation(len(candidates))]
        node_rack = self._node_rack
        if node_rack is None:
            return shuffled
        racks = node_rack[shuffled]
        usage = np.bincount(node_rack[used[:-1]], minlength=self._num_racks)
        position = np.arange(len(racks))
        by_rack = np.argsort(racks, kind="stable")
        grouped = racks[by_rack]
        rank = np.empty_like(by_rack)
        rank[by_rack] = position - np.searchsorted(grouped, grouped)
        return shuffled[np.lexsort((position, usage[racks] + rank))]

    def _place_positions(self, stripe: Stripe, positions: Sequence[int]) -> None:
        """Place blocks on distinct nodes, avoiding the stripe's nodes
        and spreading across racks.

        Collocates only when the free nodes are too few; a stripe wider
        than the whole pool cycles through the order, so every block is
        placed."""
        used = self._used_nodes(stripe)
        pool = self.namenode.placement_candidates()
        candidates = pool[~used[pool]]
        to_place = [p for p in positions if not stripe.is_virtual(p)]
        if len(candidates) < len(to_place):
            candidates = pool  # fall back: allow collocation
        if not candidates.size:
            raise PlacementError("no alive DataNodes to place blocks on")
        ordered = self._rack_spread_order(candidates, used)
        if len(ordered) < len(to_place):
            ordered = np.resize(ordered, len(to_place))
        self.namenode.place_blocks(stripe, to_place, ordered[: len(to_place)])

    def choose_repair_target(self, stripe: Stripe, position: int) -> str:
        """Placement policy for a rebuilt block (avoid stripe collocation)."""
        used = self._used_nodes(stripe)
        pool = self.namenode.placement_candidates()
        candidates = pool[~used[pool]]
        if not candidates.size:
            candidates = pool
        if not candidates.size:
            raise PlacementError("no alive DataNodes for repair target")
        first = self._rack_spread_order(candidates, used)[0]
        return self.namenode.node_ids[first]

    # ---------------------------------------------------------------- failures

    def fail_node(self, node_id: str) -> int:
        """Terminate a DataNode (the paper's failure events); returns how
        many blocks it held.

        Blocks become *missing* only after the detection delay; in-flight
        transfers touching the node abort immediately.
        """
        lost = self.namenode.kill_node(node_id)
        self.jobtracker.handle_node_death(node_id)
        self.network.abort_node(node_id)
        delay = self.config.failure_detection_delay
        self.sim.schedule(delay, lambda: self.namenode.detect_failures(node_id))
        return lost

    # ------------------------------------------------------------ task helpers

    def read_blocks(
        self,
        executor: str,
        stripe: Stripe,
        positions: Sequence[int],
        on_done: Callable[[], None],
        on_fail: Callable[[], None] | None = None,
    ) -> None:
        """Open parallel streams for the stored blocks at ``positions``.

        Completion fires once every stream finishes; any aborted stream
        (source died mid-read) fails the whole read set, as the repair
        task would fail and be re-attempted.
        """
        physical = [p for p in positions if not stripe.is_virtual(p)]
        sources = []
        for position in physical:
            node_id = self.namenode.locate(stripe, position)
            if node_id is None:
                if on_fail is not None:
                    self.sim.schedule(0.0, on_fail)
                return
            sources.append((position, node_id))
        state = {"remaining": len(sources), "failed": False}
        if not sources:
            self.sim.schedule(0.0, on_done)
            return

        def one_done() -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0 and not state["failed"]:
                on_done()

        def one_failed() -> None:
            if not state["failed"]:
                state["failed"] = True
                if on_fail is not None:
                    on_fail()

        for _, node_id in sources:
            self.network.start_transfer(
                src=node_id,
                dst=executor,
                nbytes=stripe.block_size,
                on_complete=one_done,
                on_fail=one_failed,
                disk_read=True,
            )
        # Job overhead traffic (DFS client relays, bookkeeping): the
        # paper's empirical traffic ~= 2x reads (Section 5.2.2).  One
        # batched attribution for the whole read set, not one per stream.
        overhead = (
            self.config.traffic_overhead_factor * stripe.block_size * len(sources)
        )
        if overhead > 0:
            self.metrics.record_network_out_batch(
                [(executor, overhead)], overhead, self.sim.now, self.sim.now + 1e-9
            )

    def compute(
        self,
        node_id: str,
        nbytes: float,
        rate: float,
        on_done: Callable[[], None],
        load: float = 1.0,
    ) -> None:
        """Occupy the executor's CPU for ``nbytes / rate`` seconds."""
        if rate <= 0:
            raise ValueError("compute rate must be positive")
        duration = nbytes / rate
        start = self.sim.now
        self.metrics.record_cpu_busy(start, start + duration, load=load)
        self.sim.schedule(duration, on_done)

    def write_block(
        self,
        executor: str,
        stripe: Stripe,
        position: int,
        on_done: Callable[[], None],
        on_fail: Callable[[], None] | None = None,
    ) -> None:
        """Write a (re)built block to a placement-policy target node."""
        target = self.choose_repair_target(stripe, position)

        def register() -> None:
            self.metrics.record_write(stripe.block_size)
            if self.namenode.nodes[target].alive:
                self.namenode.add_block(stripe, position, target)
                on_done()
            elif on_fail is not None:
                on_fail()

        self.network.start_transfer(
            src=executor,
            dst=target,
            nbytes=stripe.block_size,
            on_complete=register,
            on_fail=on_fail,
        )

    # ------------------------------------------------------------ overhead CPU

    def transfer_cpu_load(self, start: float, end: float) -> None:
        """Account the partial CPU cost of streaming (I/O wait isn't free)."""
        self.metrics.record_cpu_busy(start, end, load=self.config.cpu_transfer_share)

    # ------------------------------------------------------------------ queries

    def total_stored_bytes(self) -> float:
        return sum(
            len(stripe.stored_positions()) * stripe.block_size
            for stored in self.files.values()
            for stripe in stored.stripes
        )

    def all_stripes(self) -> list[Stripe]:
        return [
            stripe for stored in self.files.values() for stripe in stored.stripes
        ]

    def run(self, until: float | None = None) -> None:
        self.sim.run(until=until)

    def fsck(self) -> dict[str, int]:
        return self.namenode.fsck()
