"""Scalar executable specifications: test-only oracles.

Every vectorized subsystem's seed implementation lives on here, verbatim,
as the reference its engine is held element-identical to.  Nothing in
production imports this package — only tests, ``benchmarks/`` and
:mod:`repro.difftest` (whose registry names each oracle) do.
:func:`with_specs` is the one way to run an oracle inside a live cluster.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.cluster.decommission import DecommissionManager
from repro.cluster.hdfs import HadoopCluster
from repro.cluster.mapreduce import JobTracker
from repro.cluster.raidnode import RaidNode
from repro.cluster.scrubber_daemon import ScrubberDaemon

from .codec import GatherCodecEngine
from .daemons import plan_pass_seed, plan_recreates_seed, scan_candidates_seed
from .degraded import DegradedReadSimulation
from .montecarlo import estimate_mttdl_loop, simulate_time_to_absorption
from .namenode import DictDataNode, DictNameNode
from .network import Network, Transfer
from .placement import choose_repair_target_seed, place_positions_seed
from .scrubber import Scrubber
from .xorplane import xor_encode

__all__ = [
    "DegradedReadSimulation",
    "DictDataNode",
    "DictNameNode",
    "GatherCodecEngine",
    "Network",
    "Scrubber",
    "Transfer",
    "choose_repair_target_seed",
    "estimate_mttdl_loop",
    "place_positions_seed",
    "plan_pass_seed",
    "plan_recreates_seed",
    "scan_candidates_seed",
    "simulate_time_to_absorption",
    "with_specs",
    "xor_encode",
]


class _FullRescan:
    """``scan_candidates_seed`` behind the ``RaidScanIndex`` surface."""

    candidates = staticmethod(scan_candidates_seed)

    def mark_raided(self, name: str) -> None:
        pass  # the full rescan reads ``stored.raided`` itself


#: subsystem -> its production bindings, each (owner class, attribute, spec).
_SPEC_BINDINGS = {
    "network": ((HadoopCluster, "network_cls", Network),),
    "namenode": ((HadoopCluster, "namenode_cls", DictNameNode),),
    "placement": (
        (HadoopCluster, "_place_positions", place_positions_seed),
        (HadoopCluster, "choose_repair_target", choose_repair_target_seed),
    ),
    "mapreduce": ((JobTracker, "plan_pass", staticmethod(plan_pass_seed)),),
    "raidnode": ((RaidNode, "scan_index_cls", _FullRescan),),
    "scrubber": ((ScrubberDaemon, "make_scanner", Scrubber),),
    "decommission": (
        (DecommissionManager, "plan_recreates", staticmethod(plan_recreates_seed)),
    ),
}


@contextmanager
def with_specs(*subsystems: str) -> Iterator[None]:
    """Run the named subsystems on their scalar specs inside the block.

    Each subsystem's production bindings are plain class attributes; the
    block rebinds them to the spec and restores them on exit.  Build *and
    run* the cluster inside the block — directly or through a harness
    such as ``run_failure_schedule`` (the planner bindings are looked up
    per call).  The vectorized decommission planner reads the columnar
    index, so pair ``"namenode"`` with ``"decommission"``.
    """
    unknown = sorted(set(subsystems) - set(_SPEC_BINDINGS))
    if unknown:
        raise ValueError(
            f"no swappable spec for {unknown} (known: {sorted(_SPEC_BINDINGS)})"
        )
    saved = []
    try:
        for name in subsystems:
            for owner, attr, spec in _SPEC_BINDINGS[name]:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, spec)
        yield
    finally:
        for owner, attr, production in reversed(saved):
            setattr(owner, attr, production)
