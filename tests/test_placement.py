"""Block placement: ``HadoopCluster``'s node-index engine against the
list-of-DataNodes spec in :mod:`repro.spec.placement`.

No e2ebench workload is rack-aware, so the property test here is what
guards the rack-spread path: from identical RNG states the engine must
choose the same nodes in the same order and leave the RNG where the
spec leaves it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HadoopCluster, ec2_config
from repro.cluster.namenode import PlacementError
from repro.codes import ReedSolomonCode, rs_10_4, xorbas_lrc
from repro.experiments.runner import build_loaded_cluster
from repro.spec import choose_repair_target_seed, place_positions_seed, with_specs

CODES = {
    "rs_10_4": rs_10_4(),
    "xorbas": xorbas_lrc(),
    "rs_3_2": ReedSolomonCode(3, 2),
}


class SpecPlacementCluster(HadoopCluster):
    """A cluster whose placement is the spec's, everything else the same."""

    _place_positions = place_positions_seed
    choose_repair_target = choose_repair_target_seed


def _outcome(call):
    """What a placement call did: the node it chose, or the error."""
    try:
        result = call()
    except PlacementError as exc:
        return f"PlacementError: {exc}"
    return result if isinstance(result, str) else None


def _assert_same_placement(engine: HadoopCluster, spec: HadoopCluster) -> None:
    rows = engine.namenode.index.rows_used
    assert rows == spec.namenode.index.rows_used
    np.testing.assert_array_equal(
        engine.namenode.index.node[:rows], spec.namenode.index.node[:rows]
    )
    np.testing.assert_array_equal(
        engine.namenode.index.node_block_count,
        spec.namenode.index.node_block_count,
    )
    assert engine.rng.bit_generator.state == spec.rng.bit_generator.state
    assert engine.fsck() == spec.fsck()


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["file", "raid", "kill", "detect", "decom", "repair", "replace"]
        ),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(
    code_name=st.sampled_from(sorted(CODES)),
    num_nodes=st.integers(1, 24),
    num_racks=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    ops=OPS,
)
def test_engine_places_like_the_spec(code_name, num_nodes, num_racks, seed, ops):
    """Identical node sequences and RNG states over random loads, node
    deaths, decommissions, partly placed stripes, the collocation
    fallback (clusters narrower than a stripe) and repair targets."""
    code = CODES[code_name]
    config = ec2_config(num_nodes=num_nodes).scaled(
        num_racks=num_racks, payload_bytes=1
    )
    engine = HadoopCluster(code, config, seed=seed)
    spec = SpecPlacementCluster(code, config, seed=seed)
    node_ids = engine.namenode.node_ids
    files = 0
    for op, a, b in ops:
        if op == "file":
            size = (1 + a % (2 * code.k)) * config.block_size
            name = f"f{files:03d}"
            files += 1
            assert _outcome(lambda: engine.create_file(name, size)) == (
                _outcome(lambda: spec.create_file(name, size))
            )
        elif op == "raid" and files:
            name = f"f{a % files:03d}"
            if name in engine.files:
                assert _outcome(lambda: engine.raid_file_instant(name)) == (
                    _outcome(lambda: spec.raid_file_instant(name))
                )
        elif op in ("kill", "detect", "decom"):
            node_id = node_ids[a % num_nodes]
            for cluster in (engine, spec):
                namenode = cluster.namenode
                if op == "kill":
                    namenode.kill_node(node_id)
                elif op == "detect":
                    namenode.detect_failures(node_id)
                else:
                    namenode.nodes[node_id].decommissioning = bool(b % 2)
        elif op in ("repair", "replace") and engine.files:
            names = sorted(engine.files)
            name = names[a % len(names)]
            index = b % len(engine.files[name].stripes)
            stripes = [c.files[name].stripes[index] for c in (engine, spec)]
            missing = engine.namenode.missing_positions(stripes[0])
            if op == "repair":
                position = (missing or stripes[0].stored_positions())[0]
                targets = [
                    _outcome(lambda: c.choose_repair_target(s, position))
                    for c, s in zip((engine, spec), stripes)
                ]
                assert targets[0] == targets[1]
                if targets[0] in node_ids and missing:
                    for c, s in zip((engine, spec), stripes):
                        c.namenode.add_block(s.block_id(position), targets[0])
            elif missing:
                assert _outcome(
                    lambda: engine._place_positions(stripes[0], missing)
                ) == _outcome(lambda: spec._place_positions(stripes[1], missing))
        _assert_same_placement(engine, spec)


def test_wide_stripe_cycles_through_the_rack_spread_order():
    config = ec2_config(num_nodes=12).scaled(num_racks=4)
    cluster = build_loaded_cluster(
        rs_10_4(), config, [10 * config.block_size], seed=3
    )
    stripe = cluster.all_stripes()[0]
    rack_of = cluster.namenode.rack_of
    racks = [
        rack_of[cluster.namenode.locate(stripe, p)]
        for p in stripe.stored_positions()
    ]
    # 14 blocks over 4 racks of 3 nodes: the first 12 blocks use every
    # node once (3 per rack), the last two collocate.
    assert sorted(np.bincount(racks, minlength=4)) == [3, 3, 4, 4]


@pytest.mark.parametrize("make_code", [rs_10_4, xorbas_lrc])
def test_stripe_wider_than_the_cluster_places_every_block(make_code):
    """Two stripes (11 data blocks) on 8 nodes: every stored position
    lands on some node, none is silently dropped at load."""
    code = make_code()
    cluster = build_loaded_cluster(code, ec2_config(num_nodes=8), [640 * 2**20])
    expected = sum(len(s.stored_positions()) for s in cluster.all_stripes())
    assert cluster.fsck()["stored_blocks"] == expected
    for stripe in cluster.all_stripes():
        for position in stripe.stored_positions():
            assert cluster.namenode.locate(stripe, position) is not None


def test_with_specs_placement_loads_identically():
    config = ec2_config(num_nodes=20).scaled(num_racks=3)
    sizes = [640e6, 200e6, 64e6, 1.5e9]
    engine = build_loaded_cluster(xorbas_lrc(), config, sizes, seed=5)
    with with_specs("placement"):
        spec = build_loaded_cluster(xorbas_lrc(), config, sizes, seed=5)
    _assert_same_placement(engine, spec)
