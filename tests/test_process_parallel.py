"""Tests for the process-parallel construction path.

Builds with ``num_workers >= 2`` ship self-contained CSR work units to
worker processes and stream the returned label blocks into the flat
layout, so the key property is *bit-identity*: for every ``backend`` x
``num_workers`` combination the labels (and the hierarchy) must equal the
serial heap build exactly - not approximately.
"""

from __future__ import annotations

import pytest

from repro.core.construction import HC2LBuilder
from repro.core.dynamic import DynamicHC2LIndex, relabel
from repro.core.flat import FlatLabelling
from repro.core.index import HC2LIndex, HC2LParameters
from repro.core.labelling import HC2LLabelling

from helpers import assert_distance_equal, random_query_pairs, rewrite_archive


def _hierarchy_signature(hierarchy):
    return [
        (n.depth, n.bits, n.cut, n.parent, n.left, n.right, n.subtree_size, n.is_leaf)
        for n in hierarchy.nodes
    ]


class TestBitIdentityMatrix:
    """{heap, csr} x {1, 2, 4} workers == serial heap."""

    # every build with num_workers >= 2 runs on the process pool
    @pytest.mark.parametrize("mode", ["process"])
    @pytest.mark.parametrize("backend", ["heap", "csr"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_labels_match_serial_heap(self, medium_graph, mode, backend, workers):
        _, reference, _ = HC2LBuilder(leaf_size=8, backend="heap").build(medium_graph)
        builder = HC2LBuilder(
            leaf_size=8,
            backend=backend,
            num_workers=workers,
            parallel_threshold=16,
        )
        _, labelling, _ = builder.build(medium_graph)
        assert labelling == reference

    def test_process_hierarchy_matches_serial(self, medium_graph):
        serial_h, _, _ = HC2LBuilder(leaf_size=8, backend="csr").build(medium_graph)
        builder = HC2LBuilder(
            leaf_size=8,
            backend="csr",
            num_workers=2,
            parallel_threshold=16,
        )
        process_h, _, _ = builder.build(medium_graph)
        # the coordinator replays its expansion events in preorder, so the
        # node indices - not just the node set - match the serial recursion
        assert _hierarchy_signature(process_h) == _hierarchy_signature(serial_h)

    def test_disconnected_graph(self, disconnected_graph):
        _, reference, _ = HC2LBuilder(leaf_size=2, backend="heap").build(disconnected_graph)
        builder = HC2LBuilder(
            leaf_size=2,
            backend="csr",
            num_workers=2,
            parallel_threshold=4,
        )
        _, labelling, _ = builder.build(disconnected_graph)
        assert labelling == reference

    def test_process_distances_exact(self, small_graph, small_oracle, query_pairs_small):
        index = HC2LIndex.build(small_graph, num_workers=2, backend="csr")
        for s, t in query_pairs_small:
            assert_distance_equal(small_oracle.distance(s, t), index.distance(s, t))


class TestProcessFallback:
    def test_small_graph_builds_serially(self, small_graph):
        # at or below the parallel threshold the builder runs the serial
        # recursion: no pool tasks
        builder = HC2LBuilder(num_workers=2, parallel_threshold=256)
        hierarchy, labelling, stats = builder.build(small_graph)
        assert stats.num_tasks == 0
        _, reference, _ = HC2LBuilder().build(small_graph)
        assert labelling == reference

    def test_default_threshold_keeps_tiny_graphs_serial(self):
        from repro.graph.builders import path_graph

        graph = path_graph(40, weight=1.5)
        builder = HC2LBuilder(num_workers=2)
        _, labelling, stats = builder.build(graph)
        assert stats.num_tasks == 0
        assert isinstance(labelling, FlatLabelling)

    def test_large_enough_graph_ships_tasks(self, medium_graph):
        builder = HC2LBuilder(num_workers=2, parallel_threshold=16, leaf_size=8)
        hierarchy, labelling, stats = builder.build(medium_graph)
        assert stats.num_tasks > 0
        assert isinstance(labelling, FlatLabelling)
        assert hierarchy.check_vertex_assignment()

    def test_empty_graph(self):
        from repro.graph.graph import Graph

        hierarchy, labelling, stats = HC2LBuilder(num_workers=2).build(Graph(0))
        assert stats.num_nodes == 0
        assert len(hierarchy.nodes) == 0


class TestParameterValidation:
    def test_bad_worker_count_parameters(self):
        with pytest.raises(ValueError, match="num_workers must be >= 1"):
            HC2LParameters(num_workers=0)
        with pytest.raises(ValueError, match="num_workers must be >= 1"):
            HC2LParameters(num_workers=-3)

    def test_bad_worker_count_builder(self):
        with pytest.raises(ValueError, match="num_workers must be >= 1"):
            HC2LBuilder(num_workers=0)


class TestPersistenceRoundTrip:
    def test_legacy_parallel_mode_headers_load(self, small_graph, tmp_path):
        # archives from before the execution-mode switch was removed
        # record "thread" or "process"; both load, answer exactly like
        # the saved index and relabel
        index = HC2LIndex.build(small_graph, num_workers=2, backend="csr")
        pairs = random_query_pairs(small_graph, 40, seed=9)
        u, v, weight = next(iter(small_graph.edges()))
        reweighted = small_graph.reweighted({(u, v): 2 * weight})
        expected = relabel(index, reweighted, changed_edges=[(u, v)]).distances(pairs)
        for mode in ("thread", "process"):
            path = tmp_path / f"{mode}.npz"
            index.save(path)
            rewrite_archive(
                path, lambda header, _: header["parameters"].update(parallel_mode=mode)
            )

            loaded = HC2LIndex.load(path)
            assert loaded.parameters == index.parameters
            assert loaded.flat_labelling() == index.flat_labelling()
            assert loaded.distances(pairs).tolist() == index.distances(pairs).tolist()

            dynamic = DynamicHC2LIndex(small_graph, loaded.parameters)
            dynamic.update_edge_weight(u, v, 2 * weight)
            relabelled = relabel(loaded, reweighted, changed_edges=[(u, v)])
            assert (
                relabelled.distances(pairs).tolist()
                == dynamic.distances(pairs).tolist()
                == expected.tolist()
            )

    def test_legacy_header_defaults(self, small_graph, tmp_path):
        # an archive without the execution-mode key (and one carrying a
        # nonsensical num_workers) must load with today's defaults
        # instead of tripping the validation
        index = HC2LIndex.build(small_graph)
        path = tmp_path / "legacy.npz"
        index.save(path)

        def edit(header, arrays):
            header["parameters"].pop("parallel_mode", None)
            header["parameters"]["num_workers"] = 0

        rewrite_archive(path, edit)
        loaded = HC2LIndex.load(path)
        assert loaded.parameters.num_workers == 1
        assert loaded.flat_labelling() == index.flat_labelling()

    def test_parallel_mode_argument_rejected(self, small_graph):
        with pytest.raises(TypeError, match="parallel_mode"):
            HC2LParameters(parallel_mode="process")
        with pytest.raises(TypeError, match="parallel_mode"):
            HC2LIndex.build(small_graph, parallel_mode="thread")


class TestStreamingAssembly:
    def test_merge_levels_concatenates_per_vertex(self):
        left = FlatLabelling.from_labelling(
            HC2LLabelling(num_vertices=2, labels=[[[1.0]], [[2.0, 3.0]]])
        )
        right = FlatLabelling.from_labelling(
            HC2LLabelling(num_vertices=2, labels=[[[4.0], []], [[5.0]]])
        )
        merged = left.merge_levels(right)
        nested = merged.to_labelling()
        assert nested.labels == [[[1.0], [4.0], []], [[2.0, 3.0], [5.0]]]

    def test_merge_levels_rejects_size_mismatch(self):
        a = FlatLabelling.from_labelling(HC2LLabelling(num_vertices=1, labels=[[[1.0]]]))
        b = FlatLabelling.from_labelling(
            HC2LLabelling(num_vertices=2, labels=[[[1.0]], [[2.0]]])
        )
        with pytest.raises(ValueError):
            a.merge_levels(b)

    def test_node_timings_recorded(self, small_graph):
        _, _, stats = HC2LBuilder(leaf_size=8).build(small_graph)
        assert stats.node_timings
        assert stats.num_nodes == len(stats.node_timings)
        for depth, vertices, seconds, seconds_cut in stats.node_timings:
            assert depth >= 0
            assert vertices > 0
            assert seconds >= 0.0
            # the cut is part of the node's own work, never more than it
            assert 0.0 <= seconds_cut <= seconds
