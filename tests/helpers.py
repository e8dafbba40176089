"""Shared helper functions for the test suite.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import ...``, which breaks as soon as pytest collects more
than one directory containing a ``conftest.py`` (the ``benchmarks/``
conftest shadows this one on ``sys.path``).  Plain helpers therefore live
in this explicitly importable module; only fixtures stay in the conftest.
"""

from __future__ import annotations

import json
import random
import zlib
from typing import List, Tuple

import numpy as np

from repro.graph.builders import caterpillar_graph, graph_from_edges
from repro.graph.graph import Graph
from repro.graph.search import dijkstra

INF = float("inf")


class ExactOracle:
    """Caches full Dijkstra distance arrays for exact comparisons."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._cache: dict[int, list[float]] = {}

    def distance(self, s: int, t: int) -> float:
        if s not in self._cache:
            self._cache[s] = dijkstra(self.graph, s)
        return self._cache[s][t]


def assert_distance_equal(expected: float, actual: float, rel: float = 1e-6) -> None:
    """Distances match up to floating-point path-recombination noise."""
    if expected == INF or actual == INF:
        assert expected == actual, f"expected {expected}, got {actual}"
        return
    assert abs(expected - actual) <= rel * max(1.0, abs(expected)), (
        f"expected {expected}, got {actual}"
    )


def random_query_pairs(graph: Graph, count: int, seed: int = 0) -> List[Tuple[int, int]]:
    """Deterministic random query pairs (self-pairs allowed)."""
    rng = random.Random(seed)
    n = graph.num_vertices
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def rewrite_archive(path, edit) -> None:
    """Load a saved archive, let ``edit(header, arrays)`` mutate it, save it back."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(bytes(arrays["header"].tobytes()).decode("utf-8"))
    edit(header, arrays)
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8).copy()
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


# --------------------------------------------------------------------- #
# seeded fuzz graphs (integer weights => exact float64 arithmetic)
# --------------------------------------------------------------------- #
def _random_tree(rng: random.Random, n: int) -> List[Tuple[int, int, float]]:
    return [(rng.randrange(v), v, float(rng.randrange(1, 16))) for v in range(1, n)]


def fuzz_graph(case: str, seed: int) -> Graph:
    """One deterministic fuzz graph per (case, seed)."""
    # zlib.crc32 is stable across processes (str.hash is salted)
    rng = random.Random(zlib.crc32(case.encode()) * 10_007 + seed)
    if case == "caterpillar":
        # a pure tree: the whole component contracts into one attachment
        # tree, so EVERY off-diagonal pair takes the same-root path
        spine = rng.randrange(6, 14)
        legs = rng.randrange(1, 4)
        return caterpillar_graph(spine, legs, weight=float(rng.randrange(1, 9)))
    if case == "caterpillar_with_core":
        # caterpillar + a chord closing a cycle: part of the spine
        # survives as core, the fringe hangs off it in attachment trees
        spine = rng.randrange(8, 16)
        legs = rng.randrange(1, 4)
        graph = caterpillar_graph(spine, legs, weight=float(rng.randrange(1, 9)))
        graph.add_edge(0, spine - 1, float(rng.randrange(1, 16)))
        graph.add_edge(0, spine // 2, float(rng.randrange(1, 16)))
        return graph
    if case == "random_tree":
        n = rng.randrange(20, 70)
        return graph_from_edges(_random_tree(rng, n), num_vertices=n)
    if case == "tree_heavy":
        # spanning tree plus very few extra edges: a small core with
        # large attachment trees hanging off it
        n = rng.randrange(30, 90)
        edges = _random_tree(rng, n)
        for _ in range(rng.randrange(1, 4)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, float(rng.randrange(1, 16))))
        return graph_from_edges(edges, num_vertices=n)
    if case == "sparse":
        n = rng.randrange(25, 80)
        edges = _random_tree(rng, n)
        for _ in range(n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, float(rng.randrange(1, 16))))
        return graph_from_edges(edges, num_vertices=n)
    if case == "disconnected":
        # two tree-heavy components + an isolated vertex; cross pairs are inf
        rng_a, rng_b = random.Random(seed * 3 + 1), random.Random(seed * 3 + 2)
        n_a, n_b = rng_a.randrange(10, 30), rng_b.randrange(10, 30)
        edges = _random_tree(rng_a, n_a)
        edges += [(u + n_a, v + n_a, w) for u, v, w in _random_tree(rng_b, n_b)]
        return graph_from_edges(edges, num_vertices=n_a + n_b + 1)
    raise AssertionError(f"unknown fuzz case {case!r}")


def scoped_fuzz_graph(case: str, seed: int) -> Graph:
    """One deterministic graph per (case, seed) for the scoped-relabel fuzz."""
    rng = random.Random(zlib.crc32(case.encode()) * 7919 + seed)
    if case == "pendant_chains":
        # caterpillar + chords: big attachment trees, changed pendant
        # edges exercise the contraction-rebuild fallback
        spine = rng.randrange(8, 16)
        graph = caterpillar_graph(spine, 2, weight=float(rng.randrange(1, 9)))
        graph.add_edge(0, spine - 1, float(rng.randrange(1, 16)))
        return graph
    if case == "sparse_core":
        n = rng.randrange(30, 80)
        edges = _random_tree(rng, n)
        for _ in range(n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, float(rng.randrange(1, 16))))
        return graph_from_edges(edges, num_vertices=n)
    if case == "disconnected":
        rng_a, rng_b = random.Random(seed * 5 + 1), random.Random(seed * 5 + 2)
        n_a, n_b = rng_a.randrange(12, 30), rng_b.randrange(12, 30)
        edges = _random_tree(rng_a, n_a)
        for _ in range(n_a):
            u, v = rng_a.randrange(n_a), rng_a.randrange(n_a)
            if u != v:
                edges.append((u, v, float(rng_a.randrange(1, 16))))
        edges += [(u + n_a, v + n_a, w) for u, v, w in _random_tree(rng_b, n_b)]
        return graph_from_edges(edges, num_vertices=n_a + n_b + 1)
    raise AssertionError(f"unknown case {case!r}")
