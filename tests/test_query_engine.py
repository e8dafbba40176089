"""QueryEngine: batched distances vs the per-pair path and a Dijkstra oracle."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.engine import QueryEngine
from repro.core.index import HC2LIndex
from repro.graph.builders import graph_from_edges, path_graph
from repro.graph.search import dijkstra

from helpers import assert_distance_equal, random_query_pairs


@pytest.fixture(scope="module")
def small_index(request):
    small_graph = request.getfixturevalue("small_graph")
    return HC2LIndex.build(small_graph)


class TestBatchVsScalar:
    def test_bit_identical_to_per_pair(self, small_graph, small_index, query_pairs_small):
        batch = small_index.distances(query_pairs_small)
        for (s, t), value in zip(query_pairs_small, batch.tolist()):
            assert small_index.distance(s, t) == value

    def test_matches_dijkstra_oracle(self, small_graph, small_index, small_oracle):
        pairs = random_query_pairs(small_graph, 120, seed=21)
        batch = small_index.distances(pairs)
        for (s, t), value in zip(pairs, batch.tolist()):
            assert_distance_equal(small_oracle.distance(s, t), value)

    def test_medium_network(self, medium_graph, medium_oracle, query_pairs_medium):
        index = HC2LIndex.build(medium_graph)
        batch = index.distances(query_pairs_medium)
        for (s, t), value in zip(query_pairs_medium, batch.tolist()):
            assert_distance_equal(medium_oracle.distance(s, t), value)

    def test_random_graphs_property(self):
        """Random graphs: batch answers equal per-pair Dijkstra answers."""
        rng = random.Random(77)
        for trial in range(4):
            n = rng.randrange(12, 50)
            edges = [(rng.randrange(v), v, rng.uniform(1.0, 9.0)) for v in range(1, n)]
            for _ in range(n):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.append((u, v, rng.uniform(1.0, 9.0)))
            graph = graph_from_edges(edges, num_vertices=n)
            index = HC2LIndex.build(graph, leaf_size=4)
            pairs = random_query_pairs(graph, 40, seed=trial)
            batch = index.distances(pairs)
            for (s, t), value in zip(pairs, batch.tolist()):
                assert_distance_equal(dijkstra(graph, s)[t], value)


class TestSpecialCases:
    def test_self_pairs_are_zero(self, small_index):
        pairs = [(v, v) for v in range(0, small_index.graph.num_vertices, 7)]
        assert small_index.distances(pairs).tolist() == [0.0] * len(pairs)

    def test_disconnected_pairs_are_inf(self, disconnected_graph):
        index = HC2LIndex.build(disconnected_graph, leaf_size=2)
        batch = index.distances([(0, 5), (7, 0), (0, 2), (4, 6)])
        assert math.isinf(batch[0]) and math.isinf(batch[1])
        assert batch[2] == 3.0
        assert batch[3] == pytest.approx(1.0)

    def test_contracted_tree_pairs(self):
        # a path contracts heavily, exercising the same-attachment-root branch
        graph = path_graph(20, weight=1.5)
        index = HC2LIndex.build(graph, leaf_size=3)
        pairs = [(0, 19), (3, 3), (2, 9), (18, 1)]
        batch = index.distances(pairs)
        for (s, t), value in zip(pairs, batch.tolist()):
            assert index.distance(s, t) == value
            assert value == pytest.approx(abs(s - t) * 1.5)

    def test_empty_batch(self, small_index):
        assert small_index.distances([]).shape == (0,)

    def test_numpy_input(self, small_index, query_pairs_small):
        pairs = np.asarray(query_pairs_small, dtype=np.int64)
        assert small_index.distances(pairs).tolist() == small_index.distances(
            query_pairs_small
        ).tolist()

    def test_out_of_range_rejected(self, small_index):
        n = small_index.graph.num_vertices
        with pytest.raises(ValueError):
            small_index.distances([(0, n)])
        with pytest.raises(ValueError):
            small_index.distances([(-1, 0)])
        with pytest.raises(ValueError):
            small_index.distances([(0, 1, 2)])

    def test_non_integer_ids_rejected(self, small_index):
        # floats would silently truncate if cast; they must be refused like
        # the scalar path refuses them
        with pytest.raises(ValueError, match="integer"):
            small_index.distances([(0.7, 2)])
        with pytest.raises(ValueError, match="integer"):
            small_index.one_to_many(0, [1.5, 2])
        with pytest.raises(ValueError, match="integer"):
            small_index.many_to_many([0.5], [1])

    def test_batching_helpers_accept_numpy_inputs(self, small_index):
        from repro.applications.batching import batch_distances, one_to_many_distances

        pairs = np.asarray([(0, 5), (3, 9)], dtype=np.int64)
        assert batch_distances(small_index, pairs) == [
            small_index.distance(0, 5),
            small_index.distance(3, 9),
        ]
        targets = np.asarray([2, 4], dtype=np.int64)
        assert one_to_many_distances(small_index, 1, targets) == [
            small_index.distance(1, 2),
            small_index.distance(1, 4),
        ]

    def test_single_vertex_graph(self):
        from repro.graph.graph import Graph

        index = HC2LIndex.build(Graph(1))
        assert index.distances([(0, 0)]).tolist() == [0.0]


class TestOneToManyAndMatrix:
    def test_one_to_many_matches_distance(self, small_index):
        targets = list(range(0, small_index.graph.num_vertices, 3))
        result = small_index.one_to_many(5, targets)
        for t, value in zip(targets, result.tolist()):
            assert small_index.distance(5, t) == value

    def test_many_to_many_shape_and_values(self, small_index):
        sources = [0, 3, 11]
        targets = [2, 5, 8, 13]
        matrix = small_index.many_to_many(sources, targets)
        assert matrix.shape == (3, 4)
        for i, s in enumerate(sources):
            for j, t in enumerate(targets):
                assert matrix[i, j] == small_index.distance(s, t)
        assert np.array_equal(matrix, small_index.engine.many_to_many(sources, targets))


class TestEngineInternals:
    def test_bit_length_matches_python(self):
        """The vector LCA reads ``bit_length`` as the float64 exponent of a
        prefix difference (below 2**53 at depth <= 53); exact at every
        power-of-two edge up to 2**53 + 1."""
        values = [0] + [v for k in range(1, 54) for v in (2**k - 1, 2**k, 2**k + 1)]
        exponents = np.frexp(np.asarray(values, dtype=np.int64).astype(np.float64))[1]
        assert exponents.tolist() == [v.bit_length() for v in values]

    def test_lca_depths_match_hierarchy(self, medium_graph):
        index = HC2LIndex.build(medium_graph, contract=False)
        engine = index.engine
        rng = random.Random(5)
        n = medium_graph.num_vertices
        cs = np.asarray([rng.randrange(n) for _ in range(200)], dtype=np.int64)
        ct = np.asarray([rng.randrange(n) for _ in range(200)], dtype=np.int64)
        expected = [index.hierarchy.lca_depth(int(a), int(b)) for a, b in zip(cs, ct)]
        assert engine.resolver.lca_depths(cs, ct).tolist() == expected

    def test_scalar_lca_fallback_matches_vector_path(self, medium_graph):
        """Hierarchies deeper than the float64-exact bound take the scalar
        walk; forced on here, it must agree with the vector path."""
        index = HC2LIndex.build(medium_graph, contract=False)
        resolver = index.engine.resolver
        rng = random.Random(11)
        n = medium_graph.num_vertices
        cs = np.asarray([rng.randrange(n) for _ in range(300)], dtype=np.int64)
        ct = np.asarray([rng.randrange(n) for _ in range(300)], dtype=np.int64)
        vector = resolver.lca_depths(cs, ct)
        resolver._vector_lca = False
        try:
            scalar = resolver.lca_depths(cs, ct)
        finally:
            resolver._vector_lca = True
        assert scalar.dtype == vector.dtype == np.int64
        assert scalar.tolist() == vector.tolist()

    def test_engine_is_cached(self, small_index):
        assert small_index.engine is small_index.engine

    def test_from_index_builds_standalone_engine(self, small_graph, small_index):
        engine = QueryEngine.from_index(small_index)
        pairs = random_query_pairs(small_graph, 30, seed=2)
        assert engine.distances(pairs).tolist() == small_index.distances(pairs).tolist()
        assert engine.num_vertices == small_graph.num_vertices


def test_batch_is_faster_than_per_pair(medium_graph):
    """The acceptance bar: >= 3x on a 10k-pair workload, identical results."""
    import time

    index = HC2LIndex.build(medium_graph)
    pairs = random_query_pairs(medium_graph, 10_000, seed=99)

    # warm up (builds the cached engine outside the timed region)
    index.distances(pairs[:16])
    single = [index.distance(s, t) for s, t in pairs]
    assert single == index.distances(pairs).tolist()

    # best-of-3 per path to shrug off scheduler noise on loaded machines
    single_seconds = min(
        _timed(lambda: [index.distance(s, t) for s, t in pairs]) for _ in range(3)
    )
    batch_seconds = min(_timed(lambda: index.distances(pairs)) for _ in range(3))

    assert single_seconds >= 3.0 * batch_seconds, (
        f"batch path only {single_seconds / batch_seconds:.1f}x faster"
    )


def _timed(fn) -> float:
    import time

    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
