"""Differential fuzzing: every serving path against a Dijkstra reference.

Seeded random graphs - including caterpillar and tree-heavy topologies
whose degree-one contraction forces the same-attachment-tree resolve path
that the conformance suites never exercise - are checked oracle-vs-
Dijkstra across

* the monolithic :class:`HC2LIndex` (scalar and batch),
* a two-shard :class:`~repro.serving.shards.ShardRouter` over the sharded
  on-disk layout, and
* an index reloaded with memory-mapped label buffers.

All weights are small integers, so every path sum is exactly
representable in float64 and the comparisons can assert ``==`` (true
bit-identity), not ``approx`` - a silently wrong answer on a tree-heavy
batch cannot hide behind a tolerance.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np
import pytest

from repro.core.index import HC2LIndex
from repro.graph.graph import Graph
from repro.graph.search import dijkstra
from repro.serving import ShardRouter

from helpers import fuzz_graph

INF = float("inf")


def _query_pairs(graph: Graph, index: HC2LIndex, seed: int) -> List[Tuple[int, int]]:
    """Random pairs plus every same-attachment-tree pair (the hot path under test)."""
    rng = random.Random(seed)
    n = graph.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(120)]
    pairs += [(v, v) for v in range(0, n, max(1, n // 7))]
    root = index.contraction.root
    same_root = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if root[u] == root[v]
    ]
    rng.shuffle(same_root)
    return pairs + same_root[:400]


def _reference(graph: Graph, pairs: List[Tuple[int, int]]) -> List[float]:
    rows = {}
    out = []
    for s, t in pairs:
        if s not in rows:
            rows[s] = dijkstra(graph, s)
        out.append(rows[s][t])
    return out


FUZZ_CASES = [
    "caterpillar",
    "caterpillar_with_core",
    "random_tree",
    "tree_heavy",
    "sparse",
    "disconnected",
]


@pytest.mark.parametrize("case", FUZZ_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestDifferentialFuzz:
    def test_engine_scalar_batch_and_dijkstra_agree(self, case, seed):
        graph = fuzz_graph(case, seed)
        index = HC2LIndex.build(graph, leaf_size=4)
        pairs = _query_pairs(graph, index, seed)
        reference = _reference(graph, pairs)

        batch = index.distances(pairs)
        # scalar vs batch: bit-identical, no tolerance
        for (s, t), value in zip(pairs, batch.tolist()):
            assert index.distance(s, t) == value
        # oracle vs Dijkstra: integer weights make path sums exact
        assert batch.tolist() == reference

    def test_shard_router_matches_engine(self, case, seed, tmp_path):
        graph = fuzz_graph(case, seed)
        index = HC2LIndex.build(graph, leaf_size=4)
        pairs = _query_pairs(graph, index, seed)
        expected = index.distances(pairs)

        path = tmp_path / "fuzz.npz"
        index.save_sharded(path, num_shards=2)
        router = ShardRouter(path)
        got = router.distances(pairs)
        assert got.tolist() == expected.tolist()
        # the router's scalar path goes through the same contraction
        # resolution; spot-check it stays bit-identical too
        for s, t in pairs[:40]:
            assert router.distance(s, t) == index.distance(s, t)

    def test_mmap_loaded_index_matches_engine(self, case, seed, tmp_path):
        graph = fuzz_graph(case, seed)
        index = HC2LIndex.build(graph, leaf_size=4)
        pairs = _query_pairs(graph, index, seed)
        expected = index.distances(pairs)

        path = tmp_path / "fuzz-mono.npz"
        index.save(path)
        loaded = HC2LIndex.load(path, mmap_labels=True)
        got = loaded.distances(pairs)
        assert got.tolist() == expected.tolist()
        assert isinstance(got, np.ndarray) and got.dtype == np.float64


@pytest.mark.parametrize("case", FUZZ_CASES)
class TestFlowMethodFuzz:
    """Every max-flow solver builds bit-identical labels, end to end.

    The canonical minimum cuts are unique across all maximum flows, so
    swapping the solver behind the balanced cuts must never change a
    single label - across caterpillar, tree-heavy, sparse and
    disconnected topologies, not just the conformance graphs.
    """

    def test_flow_methods_build_identical_labels(self, case):
        from repro.core.construction import HC2LBuilder
        from repro.flow.vertex_cut import FLOW_METHODS

        graph = fuzz_graph(case, seed=1)
        reference = None
        for method in FLOW_METHODS:
            _, labelling, _ = HC2LBuilder(leaf_size=4, flow_method=method).build(graph)
            if reference is None:
                reference = labelling
            else:
                assert labelling == reference, f"flow_method={method!r} changed the labels"


@pytest.mark.parametrize("case", FUZZ_CASES)
@pytest.mark.parametrize("seed", [0, 2])
class TestIntegerWeightFuzz:
    """``csr`` construction against the heap reference on integer weights.

    All fuzz weights are small integers - the tie-heavy shape of DIMACS
    road files - and ``leaf_size=4`` keeps most recursion nodes below
    the ``csr`` backend's tiny-snapshot threshold, so both its batched
    searches and its heap delegate run on integer-weight snapshots.  The
    comparisons assert ``==`` at the label level and at the query level.
    """

    def test_csr_matches_heap(self, case, seed):
        graph = fuzz_graph(case, seed)
        reference = HC2LIndex.build(graph, leaf_size=4, backend="heap")
        csr = HC2LIndex.build(graph, leaf_size=4, backend="csr")
        assert csr.flat_labelling() == reference.flat_labelling()
        pairs = _query_pairs(graph, reference, seed)
        assert csr.distances(pairs).tolist() == reference.distances(pairs).tolist()
        # exact oracle equality too: integer weights make path sums exact
        assert csr.distances(pairs).tolist() == _reference(graph, pairs)


@pytest.mark.parametrize("case", FUZZ_CASES)
class TestProcessParallelFuzz:
    """Process-pool construction is bit-identical across graph families."""

    def test_process_build_matches_serial(self, case):
        from repro.core.construction import HC2LBuilder

        graph = fuzz_graph(case, seed=0)
        _, reference, _ = HC2LBuilder(leaf_size=4).build(graph)
        builder = HC2LBuilder(leaf_size=4, num_workers=2, parallel_threshold=8)
        _, labelling, _ = builder.build(graph)
        assert labelling == reference
