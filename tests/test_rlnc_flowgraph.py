"""Tests for the randomised construction (Theorem 4) and the information
flow graph (Appendix C)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.codes import (
    distance_feasible,
    locality_distance_bound,
    lrc_distance,
    max_feasible_distance,
    min_cut_over_collectors,
    random_lrc,
    sample_lrc_generator,
)
from repro.codes.flowgraph import build_flow_graph
from repro.galois import GF, GF256


class TestSampler:
    def test_group_structure(self):
        rng = np.random.default_rng(0)
        generator, groups = sample_lrc_generator(GF256, 4, 9, 2, rng)
        assert generator.shape == (4, 9)
        assert len(groups) == 3
        for group in groups:
            total = np.zeros(4, dtype=np.uint8)
            for member in group.members:
                total ^= generator[:, member]
            assert not np.any(total)

    def test_rejects_bad_divisibility(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_lrc_generator(GF256, 4, 10, 2, rng)


class TestRandomLrc:
    def test_achieves_optimal_distance(self):
        code = random_lrc(4, 9, 2, rng=np.random.default_rng(1))
        assert code.minimum_distance() == lrc_distance(9, 4, 2)

    def test_locality_enforced(self):
        code = random_lrc(4, 9, 2, rng=np.random.default_rng(2))
        assert code.locality() <= 2

    def test_repair_roundtrip(self):
        code = random_lrc(4, 9, 2, rng=np.random.default_rng(3))
        rng = np.random.default_rng(4)
        data = rng.integers(0, 256, size=(4, 16), dtype=np.uint8)
        coded = code.encode(data)
        for lost in range(9):
            available = {i: coded[i] for i in range(9) if i != lost}
            assert np.array_equal(code.repair(lost, available), coded[lost])

    def test_tiny_field_fails_gracefully(self):
        with pytest.raises(RuntimeError):
            random_lrc(4, 9, 2, field=GF(1), max_attempts=8)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            random_lrc(8, 9, 2)  # bound gives d < 2: no redundancy


class TestFlowGraph:
    def test_graph_shape(self):
        graph = build_flow_graph(4, 9, 2)
        group_edges = [
            (u, v)
            for u, v in graph.edges
            if isinstance(u, tuple) and u[0] == "gin"
        ]
        assert len(group_edges) == 3
        for u, v in group_edges:
            assert graph.edges[u, v]["capacity"] == 2.0

    def test_feasible_at_bound(self):
        d = locality_distance_bound(9, 4, 2)
        assert distance_feasible(4, 9, 2, d)

    def test_infeasible_beyond_bound(self):
        d = locality_distance_bound(9, 4, 2)
        assert not distance_feasible(4, 9, 2, d + 1)

    def test_max_feasible_matches_theorem2(self):
        for k, n, r in [(4, 9, 2), (2, 6, 2), (4, 8, 3)]:
            assert max_feasible_distance(k, n, r) == locality_distance_bound(n, k, r)

    def test_min_cut_value(self):
        d = locality_distance_bound(9, 4, 2)
        cut = min_cut_over_collectors(4, 9, 2, d)
        assert cut >= 4

    def test_sampled_collectors(self):
        d = locality_distance_bound(9, 4, 2)
        assert distance_feasible(4, 9, 2, d, sample=5, rng=np.random.default_rng(0))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_flow_graph(4, 10, 2)  # (r+1) does not divide n
        with pytest.raises(ValueError):
            min_cut_over_collectors(4, 9, 2, 0)


def test_import_repro_does_not_need_networkx():
    # networkx is the optional `flowgraph` extra: only the Appendix-C
    # min-cut functions may import it, never `import repro` or the CLI.
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; sys.modules['networkx'] = None; "
            "import repro, repro.codes, repro.cli",
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr[-2000:]
