"""Block placement at cluster-load scale: node indices against the spec.

Loading a cluster places every stripe twice (data blocks at create,
parities at RAID).  The spec (``repro.spec.placement``) rebuilds a list
of ``DataNode`` objects per placement, filters it against the stripe's
node set and orders it for rack spread with a greedy O(N²) ``min`` loop.
The engine (``HadoopCluster._place_positions``) works on node indices:
one mask over the BlockIndex liveness columns for the candidates, one
lexsort for the rack spread, one columnar write per stripe.

The comparison (``placement_speedup``, recorded and not gated): 1e5
blocks (RS(10,4), 7,143 full stripes) onto 400 nodes in 8 racks must
leave identical ``node`` columns and the RNG in the identical state.
"""

import gc

import numpy as np

from repro.cluster import ec2_config
from repro.codes import rs_10_4
from repro.difftest import compare_speed
from repro.experiments.runner import build_loaded_cluster
from repro.spec import with_specs

from conftest import record_metric, write_report

NUM_NODES = 400
NUM_RACKS = 8
BLOCKS = 100_000


def test_load_places_identically_at_scale():
    code = rs_10_4()
    config = ec2_config(num_nodes=NUM_NODES).scaled(num_racks=NUM_RACKS)
    stripes = round(BLOCKS / code.n)
    sizes = [code.k * config.block_size] * stripes

    def load():
        return build_loaded_cluster(code, config, sizes, seed=0)

    def load_on_spec():
        with with_specs("placement"):
            return load()

    def compare_columns(spec, engine):
        rows = engine.namenode.index.rows_used
        assert spec.namenode.index.rows_used == rows
        np.testing.assert_array_equal(
            spec.namenode.index.node[:rows], engine.namenode.index.node[:rows]
        )
        assert spec.rng.bit_generator.state == engine.rng.bit_generator.state
        assert engine.fsck()["stored_blocks"] == stripes * code.n

    gc.collect()
    record = compare_speed(
        "placement",
        spec_fn=load_on_spec,
        engine_fn=load,
        compare=compare_columns,
        metrics=record_metric,
        report=lambda line: write_report("placement.txt", line),
    )
    print(
        f"\n{stripes * code.n} blocks on {NUM_NODES} nodes / {NUM_RACKS} racks: "
        f"spec {record.spec_seconds:.2f}s, engine {record.engine_seconds:.2f}s "
        f"-> {record.speedup:.1f}x"
    )
