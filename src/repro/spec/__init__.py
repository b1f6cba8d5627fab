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

from repro.cluster.hdfs import HadoopCluster

from .codec import GatherCodecEngine
from .degraded import DegradedReadSimulation
from .montecarlo import estimate_mttdl_loop, simulate_time_to_absorption
from .namenode import DictDataNode, DictNameNode
from .network import Network, Transfer
from .placement import choose_repair_target_seed, place_positions_seed
from .xorplane import xor_encode

__all__ = [
    "DegradedReadSimulation",
    "DictDataNode",
    "DictNameNode",
    "GatherCodecEngine",
    "Network",
    "Transfer",
    "choose_repair_target_seed",
    "estimate_mttdl_loop",
    "place_positions_seed",
    "simulate_time_to_absorption",
    "with_specs",
    "xor_encode",
]


#: subsystem -> its ``HadoopCluster`` bindings, each (attribute, spec).
_SPEC_BINDINGS = {
    "network": (("network_cls", Network),),
    "namenode": (("namenode_cls", DictNameNode),),
    "placement": (
        ("_place_positions", place_positions_seed),
        ("choose_repair_target", choose_repair_target_seed),
    ),
}


@contextmanager
def with_specs(*subsystems: str) -> Iterator[None]:
    """Run the named subsystems on their scalar specs inside the block.

    The subsystems are ``"network"``, ``"namenode"`` and ``"placement"``.
    Their production bindings are plain ``HadoopCluster`` class
    attributes; the block rebinds them to the spec and restores them on
    exit.  Build *and run* the cluster inside the block — directly or
    through a harness such as ``run_failure_schedule``.
    """
    unknown = sorted(set(subsystems) - set(_SPEC_BINDINGS))
    if unknown:
        raise ValueError(
            f"no swappable spec for {unknown} (known: {sorted(_SPEC_BINDINGS)})"
        )
    saved = []
    try:
        for name in subsystems:
            for attr, spec in _SPEC_BINDINGS[name]:
                saved.append((attr, vars(HadoopCluster)[attr]))
                setattr(HadoopCluster, attr, spec)
        yield
    finally:
        for attr, production in reversed(saved):
            setattr(HadoopCluster, attr, production)
