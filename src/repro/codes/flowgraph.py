"""The locality-aware information flow graph of Appendix C (Figure 9).

``G(k, n-k, r, d)`` is a directed network: the k file blocks are sources,
the n coded blocks are intermediate nodes, and every Data Collector (DC)
that connects to n - d + 1 coded blocks is a sink.  Locality is encoded by
bottleneck gadgets: the blocks of an (r+1)-group draw their joint flow
through a single edge of capacity r * M/k, so the group's joint entropy
cannot exceed r file blocks.

A distance d is *feasible* for (k, n-k, r) iff every DC's min-cut is at
least M; by the RLNC argument (Theorem 3) a feasible multicast session
yields a concrete code.  We verify cuts with networkx max-flow, working in
units of M/k (so capacities are small integers: group edges carry r, block
edges carry 1).

networkx is imported inside the two functions that build and solve the
graph: it is the optional ``flowgraph`` extra, not a dependency of
``import repro``.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "build_flow_graph",
    "data_collector_min_cut",
    "min_cut_over_collectors",
    "distance_feasible",
]

SOURCE = "source"


def _check_parameters(k: int, n: int, r: int) -> None:
    if k < 1 or n <= k:
        raise ValueError("require n > k >= 1")
    if r < 1:
        raise ValueError("locality must be >= 1")
    if n % (r + 1) != 0:
        raise ValueError(
            "Appendix C assumes non-overlapping (r+1)-groups: (r+1) must divide n"
        )


def build_flow_graph(k: int, n: int, r: int) -> nx.DiGraph:
    """Construct G(k, n-k, r, ·) without its data collectors.

    Node naming: ``source`` (super-source), ``("x", i)`` file blocks,
    ``("gin", g)``/``("gout", g)`` group gadgets, ``("yin", j)`` /
    ``("yout", j)`` coded blocks.  Capacities are in units of M/k.
    """
    import networkx as nx

    _check_parameters(k, n, r)
    graph = nx.DiGraph()
    infinite = float(k * n + 1)  # larger than any achievable flow
    for i in range(k):
        graph.add_edge(SOURCE, ("x", i), capacity=infinite)
    num_groups = n // (r + 1)
    for g in range(num_groups):
        graph.add_edge(("gin", g), ("gout", g), capacity=float(r))
        for i in range(k):
            graph.add_edge(("x", i), ("gin", g), capacity=infinite)
        for j in range(g * (r + 1), (g + 1) * (r + 1)):
            graph.add_edge(("gout", g), ("yin", j), capacity=infinite)
            graph.add_edge(("yin", j), ("yout", j), capacity=1.0)
    return graph


def data_collector_min_cut(
    graph: nx.DiGraph, blocks: tuple[int, ...], k: int, n: int
) -> float:
    """Max source→DC flow for a collector reading the given coded blocks."""
    import networkx as nx

    dc = ("dc", blocks)
    infinite = float(k * n + 1)
    graph.add_node(dc)
    for j in blocks:
        graph.add_edge(("yout", j), dc, capacity=infinite)
    try:
        value, _ = nx.maximum_flow(graph, SOURCE, dc)
    finally:
        graph.remove_node(dc)
    return value


def min_cut_over_collectors(
    k: int,
    n: int,
    r: int,
    d: int,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
    seed: int = 0,
) -> float:
    """Minimum cut over data collectors of in-degree n - d + 1.

    There are C(n, n-d+1) collectors; ``sample`` bounds how many are
    checked (None = exhaustive).  Exploiting group symmetry would shrink
    the space, but exhaustive checks are tractable for stripe-sized codes.
    Sampling draws from ``rng`` when given, else from ``seed`` — so a
    caller varying the seed gets fresh collector subsets reproducibly.
    """
    _check_parameters(k, n, r)
    if not 1 <= d <= n:
        raise ValueError("require 1 <= d <= n")
    graph = build_flow_graph(k, n, r)
    degree = n - d + 1
    collectors = combinations(range(n), degree)
    total = math.comb(n, degree)
    if sample is not None and sample < total:
        if rng is None:
            rng = np.random.default_rng(seed)
        pool = list(collectors)
        picks = rng.choice(len(pool), size=sample, replace=False)
        collectors = (pool[i] for i in picks)
    worst = float("inf")
    for blocks in collectors:
        worst = min(worst, data_collector_min_cut(graph, tuple(blocks), k, n))
        if worst < k:  # already infeasible; no need to continue
            break
    return worst


def distance_feasible(
    k: int,
    n: int,
    r: int,
    d: int,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
    seed: int = 0,
) -> bool:
    """Lemma 2 check: d is feasible iff every sampled DC min-cut >= M (= k).

    For d within Theorem 2's bound this returns True; for d one beyond the
    bound it returns False — the pair of facts the tests assert.
    """
    cut = min_cut_over_collectors(k, n, r, d, sample=sample, rng=rng, seed=seed)
    return cut >= k - 1e-9


def max_feasible_distance(
    k: int, n: int, r: int, sample: int | None = None, seed: int = 0
) -> int:
    """Largest d the flow graph supports; equals Theorem 2's bound."""
    best = 0
    for d in range(1, n - k + 2):
        if distance_feasible(k, n, r, d, sample=sample, seed=seed):
            best = d
        else:
            break
    return best
