"""The three workloads, each a closed loop in one process that runs the program.

A workload function fills a :class:`Pass`: timing samples per operation
kind, the answer checker, facts such as the label size, and the graph
and in-process index it served (the traced run's probes reuse them).  Inputs are generated untimed from the seed; every timed answer
is compared with an expected value computed outside the timed region.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.dynamic import DynamicHC2LIndex
from repro.core.index import HC2LIndex
from repro.experiments.dynamic import clustered_edge_changes
from repro.experiments.workloads import random_pairs
from repro.graph.graph import Graph
from repro.graph.io import read_dimacs, write_dimacs
from repro.graph.search import dijkstra

from . import inputs
from .inputs import Pair, Sizes
from .measure import Checker, Samples, median, self_peak_rss_mb

#: refreshes of build-dimacs (rebuild from the file) that ``update_total_s`` sums;
#: at least this many builds run, so ``build_s`` is a median of three
BUILD_REFRESHES = 3
#: read_dimacs set-ups before each build-dimacs build (about 50 ms each, so
#: take more; spread over the builds, they sample more than one moment)
DIMACS_READS = 5
#: batch and matrix calls on each build-dimacs reload; 1000 gives every
#: reload's 99th percentile 10 samples beyond it
CHECK_CALLS = 1000
#: replays of update-local's trace, at least; more run while time is left
UPDATE_ROUNDS = 3
#: shards of the fleet and router probes' layout
FLEET_SHARDS = 4
#: worker processes of the fleet probe's server
FLEET_WORKERS = 2


@dataclass
class Pass:
    """One measured pass of one workload."""

    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    workdir: Path
    src: Path
    tracer: object
    checker: Checker
    samples: Samples = field(default_factory=Samples)
    facts: Dict[str, float] = field(default_factory=dict)
    #: per-layer values the workload measures natively (traced pass)
    layer: Dict[str, float] = field(default_factory=dict)
    #: hash of every generated input
    fingerprint: str = ""
    graph: Optional[Graph] = None
    index: Optional[HC2LIndex] = None
    #: every pair the workload's queries asked about (input properties)
    issued: List[Pair] = field(default_factory=list)
    #: neighbourhood batches the router probe replays
    local: List[List[Pair]] = field(default_factory=list)
    #: an index path whose sharded layout exists
    layout: Optional[Path] = None

    def query(self, kind: str, call: Callable, pairs: int):
        """Time one query call; a raised call is counted as a failure."""
        self.checker.op()
        with self.tracer.request(kind):
            start = time.perf_counter()
            try:
                result = call()
            except Exception as error:  # a wrong answer, not a crashed benchmark
                self.checker.raised(kind, error)
                return None
            elapsed = time.perf_counter() - start
        self.record(kind, elapsed, pairs)
        return result

    def record(self, kind: str, elapsed: float, pairs: int) -> None:
        """One answered query call: its latency and the pairs it answered."""
        self.samples.add(kind, elapsed)
        self.facts["query_pairs"] = self.facts.get("query_pairs", 0.0) + pairs
        self.facts["query_seconds"] = self.facts.get("query_seconds", 0.0) + elapsed


# ---------------------------------------------------------------------- #
# expected answers
# ---------------------------------------------------------------------- #
def scalar_answers(oracle, pairs: Sequence[Pair]) -> np.ndarray:
    """The scalar in-process path, one ``distance`` call per pair."""
    return np.array([oracle.distance(int(s), int(t)) for s, t in pairs], dtype=np.float64)


def scalar_matrix(oracle, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
    return np.array(
        [[oracle.distance(int(s), int(t)) for t in targets] for s in sources], dtype=np.float64
    )


def dijkstra_pairs(graph: Graph, sources: Sequence[int], targets: Sequence[int]):
    """``(pairs, distances)`` from full Dijkstra rows of ``sources``."""
    pairs: List[Pair] = []
    values: List[float] = []
    for s in sources:
        row = dijkstra(graph, s)
        for t in targets:
            pairs.append((s, t))
            values.append(row[t])
    return pairs, np.asarray(values, dtype=np.float64)


def check_dijkstra(p: Pass, what: str, oracle, graph: Graph, sources, targets) -> None:
    pairs, reference = dijkstra_pairs(graph, sources, targets)
    p.checker.close(what, oracle.distances(pairs), reference)


def _sample_targets(graph: Graph, seed: int, count: int) -> List[int]:
    return [t for _, t in random_pairs(graph, count, seed=seed)]


def _record_inputs(p: Pass, graph: Graph, *parts) -> None:
    p.graph = graph
    p.fingerprint = inputs.fingerprint(graph, *parts)
    p.facts["integer_weight_share"] = inputs.integer_weight_share(graph)


# ---------------------------------------------------------------------- #
# build-dimacs
# ---------------------------------------------------------------------- #
def build_dimacs(p: Pass) -> None:
    """read_dimacs, then build + save from scratch and check the reload, each time.

    Every build is of a freshly read graph; the reads before it are the
    set-ups ``setup_s`` is the median of.
    """
    sizes = p.sizes
    graph = inputs.integer_weights(inputs.road_network(p.seed, sizes))
    path = p.workdir / "net.gr"
    write_dimacs(graph, path)
    points = random_pairs(graph, sizes.points_per_round * 10, seed=inputs.sub_seed(p.seed, "pts"))
    batches = inputs.uniform_batches(graph, sizes.pool, sizes.batch_pairs, p.seed)
    matrices = inputs.local_matrices(
        graph, sizes.pool, sizes.matrix_side, inputs.sub_seed(p.seed, "mat")
    )
    _record_inputs(p, graph, points, batches, matrices)
    p.local = [[(s, t) for s in src for t in dst] for src, dst in matrices]
    p.issued = points + [pair for batch in batches + p.local for pair in batch]
    edges = sorted(graph.edges())
    sources = [s for s, _ in points[: sizes.dijkstra_sources]]
    targets = _sample_targets(graph, inputs.sub_seed(p.seed, "dij"), 100)
    expected_batches = expected_matrices = expected_points = None
    gc.collect()
    window_start = time.perf_counter()
    iteration = 0
    while iteration < BUILD_REFRESHES or time.perf_counter() - window_start < p.seconds:
        for _ in range(DIMACS_READS):
            p.checker.op()
            with p.tracer.request("setup"):
                start = time.perf_counter()
                with p.tracer.span("graph.read_dimacs"):
                    loaded_graph = read_dimacs(path)
                p.samples.add("setup", time.perf_counter() - start)
            if sorted(loaded_graph.edges()) != edges:
                p.checker.fail("read_dimacs: graph differs from the file written")
        index_path = p.workdir / f"index-{iteration}.npz"
        p.checker.op()
        with p.tracer.request("build"):
            start = time.perf_counter()
            index = HC2LIndex.build(loaded_graph)
            index.save(index_path)
            built = time.perf_counter() - start
        p.samples.add("build", built)
        p.checker.op()
        with p.tracer.request("refresh"):
            start = time.perf_counter()
            served = HC2LIndex.load(index_path)
            first = served.distance(*points[0])
            reloaded = time.perf_counter() - start
        p.samples.add("update", built + reloaded)
        p.facts["label_bytes"] = float(index.label_size_bytes())
        p.facts["file_bytes"] = float(index_path.stat().st_size)

        if expected_batches is None:
            # the scalar path of the freshly built (not reloaded) index
            expected_batches = [scalar_answers(index, batch) for batch in batches]
            expected_matrices = [scalar_matrix(index, s, t) for s, t in matrices]
            expected_points = index.distances(points)
        p.checker.equal("reloaded first answer", first, expected_points[0])
        for _ in range(-(-CHECK_CALLS // len(batches))):
            for k, (s, t) in enumerate(points):
                got = p.query("point", lambda: served.distance(s, t), 1)
                p.checker.equal("reloaded point", got, expected_points[k])
            for k, batch in enumerate(batches):
                got = p.query("batch", lambda: served.distances(batch), len(batch))
                p.checker.equal("reloaded batch", got, expected_batches[k])
            for k, (s, t) in enumerate(matrices):
                got = p.query("matrix", lambda: served.many_to_many(s, t), len(s) * len(t))
                p.checker.equal("reloaded matrix", got, expected_matrices[k])
        p.checker.equal(
            "reloaded batch vs built batch", served.distances(points), index.distances(points)
        )
        check_dijkstra(p, "reloaded vs dijkstra", served, graph, sources, targets)
        served.close()
        index_path.unlink()
        p.index = index
        iteration += 1
    p.facts["update_total_s"] = sum(p.samples.get("update")[:BUILD_REFRESHES])
    p.facts["peak_rss_mb"] = self_peak_rss_mb()


# ---------------------------------------------------------------------- #
# query-mix
# ---------------------------------------------------------------------- #
def query_mix(p: Pass) -> None:
    """Build in set-up, then a seeded interleaving of points, list batches and matrices."""
    sizes = p.sizes
    graph = inputs.road_network(p.seed, sizes)
    points = random_pairs(
        graph, sizes.pool * sizes.points_per_round, seed=inputs.sub_seed(p.seed, "pts")
    )
    batches = inputs.uniform_batches(graph, sizes.pool, sizes.batch_pairs, p.seed)
    matrices = inputs.local_matrices(
        graph, sizes.pool, sizes.matrix_side, inputs.sub_seed(p.seed, "mat")
    )
    kinds = ["batch", "matrix"] + ["point"] * sizes.points_per_round
    sequence = inputs.op_sequence(p.seed, 2 * sizes.pool, kinds)
    _record_inputs(p, graph, points, batches, matrices, sequence)
    p.local = [[(s, t) for s in src for t in dst] for src, dst in matrices]
    p.issued = points + [pair for batch in batches + p.local for pair in batch]

    index = None
    for _ in range(sizes.setup_repeats):
        index = None
        gc.collect()
        p.checker.op()
        with p.tracer.request("setup"):
            start = time.perf_counter()
            index = HC2LIndex.build(graph)
            built = time.perf_counter() - start
            first = index.distance(*points[0])
            elapsed = time.perf_counter() - start
        p.samples.add("setup", elapsed)
        p.samples.add("build", built)
        # a static in-memory index picks up new weights by rebuilding
        p.samples.add("update", elapsed)
    p.facts["update_total_s"] = sum(p.samples.get("update"))
    p.facts["label_bytes"] = float(index.label_size_bytes())
    p.index = index

    expected_batches = [scalar_answers(index, batch) for batch in batches]
    expected_matrices = [scalar_matrix(index, s, t) for s, t in matrices]
    expected_points = index.distances(points)
    p.checker.equal("first answer", first, expected_points[0])
    check_dijkstra(
        p,
        "index vs dijkstra",
        index,
        graph,
        [s for s, _ in points[: sizes.dijkstra_sources]],
        _sample_targets(graph, inputs.sub_seed(p.seed, "dij"), 100),
    )

    counters = {"point": 0, "batch": 0, "matrix": 0}
    gc.collect()
    deadline = time.perf_counter() + p.seconds
    step = 0
    while time.perf_counter() < deadline:
        kind = sequence[step % len(sequence)]
        step += 1
        k = counters[kind]
        counters[kind] = k + 1
        if kind == "point":
            k %= len(points)
            s, t = points[k]
            got = p.query("point", lambda: index.distance(s, t), 1)
            p.checker.equal("point", got, expected_points[k])
        elif kind == "batch":
            k %= len(batches)
            batch = batches[k]
            got = p.query("batch", lambda: index.distances(batch), len(batch))
            p.checker.equal("batch", got, expected_batches[k])
        else:
            k %= len(matrices)
            s, t = matrices[k]
            got = p.query("matrix", lambda: index.many_to_many(s, t), len(s) * len(t))
            p.checker.equal("matrix", got, expected_matrices[k])
    p.facts["peak_rss_mb"] = self_peak_rss_mb()


# ---------------------------------------------------------------------- #
# update-local
# ---------------------------------------------------------------------- #
def update_local(p: Pass) -> None:
    """Clustered reweight epochs on a DynamicHC2LIndex, local reads after each.

    The network and its update trace are fixed (see
    :func:`inputs.update_trace`); the seed draws the reads.  The trace
    undoes each change in the next epoch, so a whole round of it leaves
    the weights as they were and the next round replays the same
    relabels.  Rounds run whole, at least :data:`UPDATE_ROUNDS` of them;
    each epoch's update time is its median over the rounds.
    """
    sizes = p.sizes
    graph = inputs.base_network(sizes)
    points = random_pairs(
        graph, sizes.epoch_points * 8, seed=inputs.sub_seed(p.seed, "pts")
    )
    batches = inputs.local_batches(
        graph, sizes.pool, sizes.local_batch_pairs, inputs.sub_seed(p.seed, "loc")
    )
    matrices = inputs.local_matrices(
        graph, sizes.pool, sizes.local_matrix_side, inputs.sub_seed(p.seed, "mat")
    )
    _record_inputs(p, graph, points, batches, matrices)
    p.issued = points + [pair for batch in batches for pair in batch]
    p.issued += [(s, t) for src, dst in matrices for s in src for t in dst]
    p.local = batches

    dynamic = None
    for _ in range(sizes.setup_repeats):
        dynamic = None
        gc.collect()
        p.checker.op()
        with p.tracer.request("setup"):
            start = time.perf_counter()
            dynamic = DynamicHC2LIndex(graph)
            built = time.perf_counter() - start
            first = dynamic.distance(*points[0])
            elapsed = time.perf_counter() - start
        p.samples.add("setup", elapsed)
        p.samples.add("build", built)
    p.checker.equal("first answer", first, dynamic.index.distances([points[0]])[0])
    p.facts["label_bytes"] = float(dynamic.label_size_bytes())

    trace = inputs.update_trace(sizes.update_epochs)
    epochs = len(trace)
    current = graph  # the benchmark's own copy of the weights, for Dijkstra
    scoped = recomputed = spliced = 0.0
    first_batches: List[float] = []
    first_points: List[float] = []
    gc.collect()
    window_start = time.perf_counter()
    epoch = 0
    while (
        epoch % epochs
        or epoch < UPDATE_ROUNDS * epochs
        or time.perf_counter() - window_start < p.seconds
    ):
        # the cluster depends on the seed alone, so the 0.5 epoch after
        # a 2.0 epoch restores that cluster's weights exactly
        factor = 2.0 if epoch % 2 == 0 else 0.5
        changes = clustered_edge_changes(
            current, sizes.changed_edges, factor, seed=trace[epoch % epochs]
        )
        current = current.reweighted(changes)
        probe = points[epoch % len(points)]
        p.checker.op()
        with p.tracer.request("update"):
            start = time.perf_counter()
            for (u, v), weight in changes.items():
                dynamic.update_edge_weight(u, v, weight)
            dynamic.flush()
            swapped = time.perf_counter()
            # the new index's first answer builds its query engine
            first = dynamic.index.distance(*probe)
            answered = time.perf_counter()
        p.samples.add("update", answered - start)
        first_points.append(answered - swapped)
        summary = dynamic.index.describe()
        scoped += summary.get("relabel_scoped", 0.0)
        recomputed += summary.get("relabel_nodes_recomputed", 0.0)
        spliced += summary.get("relabel_nodes_spliced", 0.0)

        base = epoch * sizes.epoch_points
        epoch_points = [points[(base + j) % len(points)] for j in range(sizes.epoch_points)]
        epoch_batches = [batches[(epoch + j) % len(batches)] for j in range(sizes.epoch_batches)]
        epoch_matrices = [
            matrices[(epoch + j) % len(matrices)] for j in range(sizes.epoch_matrices)
        ]
        batch_answers = []
        for j, batch in enumerate(epoch_batches):
            batch_answers.append(p.query("batch", lambda: dynamic.distances(batch), len(batch)))
            if j == 0 and batch_answers[0] is not None:
                first_batches.append(p.samples.get("batch")[-1])
        point_answers = [
            p.query("point", lambda: dynamic.distance(s, t), 1) for s, t in epoch_points
        ]
        matrix_answers = [
            p.query("matrix", lambda: dynamic.many_to_many(s, t), len(s) * len(t))
            for s, t in epoch_matrices
        ]

        index = dynamic.index
        for batch, got in zip(epoch_batches, batch_answers):
            p.checker.equal("batch after update", got, scalar_answers(index, batch))
        expected_points = index.distances([probe] + epoch_points)
        p.checker.equal("first answer after update", first, expected_points[0])
        for j, got in enumerate(point_answers):
            p.checker.equal("point after update", got, expected_points[j + 1])
        for (s, t), got in zip(epoch_matrices, matrix_answers):
            p.checker.equal("matrix after update", got, scalar_matrix(index, s, t))
        targets = [t for _, t in epoch_points] + [probe[1]]
        check_dijkstra(p, "dijkstra after update", index, current, [probe[0]], targets)
        epoch += 1

    if list(current.edges()) != list(graph.edges()):
        p.checker.fail("update trace: a whole round did not restore the weights")
    # one sample per epoch of the trace: its median over the rounds
    rounds = p.samples.get("update")
    p.samples.values["update"] = [median(rounds[j::epochs]) for j in range(epochs)]
    p.facts["update_rounds"] = float(epoch // epochs)
    p.facts["update_total_s"] = sum(p.samples.get("update"))
    p.facts["peak_rss_mb"] = self_peak_rss_mb()
    p.layer["dynamic.scoped_share"] = scoped / epoch
    p.layer["dynamic.nodes_recomputed"] = recomputed / epoch
    p.layer["dynamic.nodes_spliced"] = spliced / epoch
    p.layer["engine.first_batch_after_swap_ms"] = float(np.median(first_batches)) * 1e3
    p.layer["engine.first_point_after_swap_us"] = float(np.median(first_points)) * 1e6
    p.graph = current
    p.index = dynamic.index


WORKLOADS = {
    "build-dimacs": build_dimacs,
    "query-mix": query_mix,
    "update-local": update_local,
}
