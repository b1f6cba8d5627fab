"""The original list-of-DataNodes block placement: the executable spec
:class:`~repro.cluster.hdfs.HadoopCluster`'s node-index placement must
choose identically to, from identical RNG states.

Each function takes the cluster where the seed method took ``self``, so
:func:`repro.spec.with_specs` can bind them in as the methods they were.
The one change from the seed is the bug fix the engine carries too: a
stripe wider than the whole candidate pool cycles through the order
instead of silently dropping the blocks ``zip`` truncated.
"""

from __future__ import annotations

from itertools import cycle
from typing import Sequence

from repro.cluster.blocks import Stripe
from repro.cluster.namenode import PlacementError

__all__ = [
    "choose_repair_target_seed",
    "place_positions_seed",
    "placement_candidates_seed",
    "rack_spread_order_seed",
]


def placement_candidates_seed(namenode) -> list:
    """Nodes eligible to receive new blocks (alive, not retiring)."""
    return [n for n in namenode.nodes.values() if n.alive and not n.decommissioning]


def rack_spread_order_seed(cluster, candidates, stripe: Stripe) -> list:
    """Order candidates so racks the stripe uses least come first."""
    rack_of = cluster.namenode.rack_of
    if not rack_of:
        order = cluster.rng.permutation(len(candidates))
        return [candidates[i] for i in order]
    usage: dict[int, int] = {}
    for node_id in cluster.namenode.stripe_node_set(stripe):
        rack = rack_of.get(node_id)
        usage[rack] = usage.get(rack, 0) + 1
    shuffled = [candidates[i] for i in cluster.rng.permutation(len(candidates))]
    ordered: list = []
    # Repeatedly take a node from the least-used rack available.
    remaining = list(shuffled)
    while remaining:
        pick = min(remaining, key=lambda n: usage.get(rack_of.get(n.node_id), 0))
        ordered.append(pick)
        remaining.remove(pick)
        rack = rack_of.get(pick.node_id)
        usage[rack] = usage.get(rack, 0) + 1
    return ordered


def place_positions_seed(cluster, stripe: Stripe, positions: Sequence[int]) -> None:
    """Place blocks on distinct nodes, avoiding the stripe's nodes
    and spreading across racks."""
    used = cluster.namenode.stripe_node_set(stripe)
    pool = placement_candidates_seed(cluster.namenode)
    candidates = [n for n in pool if n.node_id not in used]
    to_place = [p for p in positions if not stripe.is_virtual(p)]
    if len(candidates) < len(to_place):
        candidates = pool  # fall back: allow collocation
    if not candidates:
        raise PlacementError("no alive DataNodes to place blocks on")
    ordered = rack_spread_order_seed(cluster, candidates, stripe)
    for position, node in zip(to_place, cycle(ordered)):
        cluster.namenode.add_block(stripe, position, node.node_id)


def choose_repair_target_seed(cluster, stripe: Stripe, position: int) -> str:
    """Placement policy for a rebuilt block (avoid stripe collocation)."""
    used = cluster.namenode.stripe_node_set(stripe)
    pool = placement_candidates_seed(cluster.namenode)
    candidates = [n for n in pool if n.node_id not in used]
    if not candidates:
        candidates = pool
    if not candidates:
        raise PlacementError("no alive DataNodes for repair target")
    return rack_spread_order_seed(cluster, candidates, stripe)[0].node_id
