"""Seeded, untimed input generation.

Everything a workload feeds the program is derived here from the
workload seed: the road network's edge weights, its integer-weight
DIMACS file, the query pools and the op sequences.
The same seed gives the same inputs; :func:`fingerprint` hashes them so
the self-test can check that.

The network's topology is one fixed synthetic road network (like a
paper dataset); the seed draws every edge's length from within 10% of
its length there.  Topology is what sets the hierarchy and most of the
build cost, so holding it fixed keeps the spread between seeds down to
what the weights, the queries and the machine contribute.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments.workloads import (
    neighborhood_batches,
    neighborhood_matrices,
    random_pairs,
)
from repro.graph.generators import RoadNetworkSpec, synthetic_road_network
from repro.graph.graph import Graph

Pair = Tuple[int, int]


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark scale."""

    vertices: int
    #: uniform pairs per ``distances`` batch (query-mix, build-dimacs checks)
    batch_pairs: int
    #: side of a neighbourhood ``many_to_many`` matrix (in-process workloads)
    matrix_side: int
    #: pairs per neighbourhood batch (update-local)
    local_batch_pairs: int
    #: side of an update-local ``many_to_many`` matrix and of the codec probe's reply
    local_matrix_side: int
    #: distinct inputs per pool; the op sequence cycles through them
    pool: int
    #: point queries between two batch calls in the query-mix sequence
    points_per_round: int
    #: uniform pairs whose hub counts give ``engine.hubs_per_pair``
    hub_sample: int
    #: Dijkstra sources whose rows check the answers
    dijkstra_sources: int
    #: reads after each update epoch
    epoch_points: int
    epoch_batches: int
    epoch_matrices: int
    #: epochs of the fixed update sequence that ``update_total_s`` sums
    update_epochs: int
    #: edges per clustered weight change
    changed_edges: int
    #: set-up repetitions whose median is ``setup_s``
    setup_repeats: int


FULL = Sizes(
    vertices=3200,
    batch_pairs=1000,
    matrix_side=32,
    local_batch_pairs=32,
    local_matrix_side=24,
    pool=32,
    points_per_round=40,
    hub_sample=500,
    dijkstra_sources=6,
    epoch_points=60,
    epoch_batches=30,
    epoch_matrices=8,
    update_epochs=16,
    changed_edges=10,
    setup_repeats=5,
)

TINY = Sizes(
    vertices=160,
    batch_pairs=50,
    matrix_side=6,
    local_batch_pairs=8,
    local_matrix_side=5,
    pool=4,
    points_per_round=5,
    hub_sample=40,
    dijkstra_sources=2,
    epoch_points=6,
    epoch_batches=3,
    epoch_matrices=1,
    update_epochs=2,
    changed_edges=4,
    setup_repeats=2,
)


def sub_seed(seed: int, tag: str) -> int:
    """A stable 31-bit seed for one named input stream of a workload seed."""
    return zlib.crc32(f"{seed}:{tag}".encode()) & 0x7FFFFFFF


#: generator seed of the fixed topology
TOPOLOGY_SEED = 2024
#: each edge length is scaled by a seeded factor in [1 - JITTER, 1 + JITTER]
JITTER = 0.1


def base_network(sizes: Sizes) -> Graph:
    """The fixed topology with the generator's own (3-decimal) lengths."""
    spec = RoadNetworkSpec("perfbench", num_vertices=sizes.vertices, seed=TOPOLOGY_SEED)
    return synthetic_road_network(spec).distance_graph


def road_network(seed: int, sizes: Sizes) -> Graph:
    """The float-weight road network of ``seed``: fixed topology, seeded lengths.

    Weights keep the generator's 3 decimals.
    """
    base = base_network(sizes)
    rng = random.Random(sub_seed(seed, "weights"))
    graph = Graph(base.num_vertices)
    for u, v, w in base.edges():
        graph.add_edge(u, v, round(w * rng.uniform(1 - JITTER, 1 + JITTER), 3))
    return graph


def integer_weights(graph: Graph) -> Graph:
    """The same network with every weight rounded to a positive integer."""
    rounded = Graph(graph.num_vertices)
    for u, v, w in graph.edges():
        rounded.add_edge(u, v, float(max(1, round(w))))
    return rounded


def integer_weight_share(graph: Graph) -> float:
    weights = [w for _, _, w in graph.edges()]
    return sum(1 for w in weights if float(w).is_integer()) / max(1, len(weights))


def uniform_batches(graph: Graph, count: int, size: int, seed: int) -> List[List[Pair]]:
    return [random_pairs(graph, size, seed=sub_seed(seed, f"batch{i}")) for i in range(count)]


def local_batches(graph: Graph, count: int, size: int, seed: int) -> List[List[Pair]]:
    batches = neighborhood_batches(graph, count, size, seed=seed)
    if len(batches) != count:
        raise ValueError(f"graph yields {len(batches)} of {count} neighbourhood batches")
    return batches


def local_matrices(graph: Graph, count: int, side: int, seed: int):
    matrices = neighborhood_matrices(graph, count, side, seed=seed)
    if len(matrices) != count:
        raise ValueError(f"graph yields {len(matrices)} of {count} neighbourhood matrices")
    return matrices


def update_trace(count: int) -> List[int]:
    """Cluster seeds of update-local's ``count`` epochs, in order.

    Each cluster seed appears twice in a row: its first epoch scales the
    cluster's edges by 2.0 and the second by 0.5, which restores them
    exactly, so a whole trace leaves the weights as it found them.

    Like the topology, the trace is fixed: whether a relabel stays scoped,
    and how near the hierarchy's root its cluster falls, depends on the
    cluster, the weights and the changes before it, and one relabel costs
    0.2 s to 2.9 s.  Drawing the trace or the weights per seed made the
    median update cost jump between those regimes from run to run.
    """
    return [sub_seed(TOPOLOGY_SEED, f"epoch{i // 2}") for i in range(count)]


def op_sequence(seed: int, rounds: int, kinds: Sequence[str]) -> List[str]:
    """A seeded interleaving: each round holds ``kinds`` in a shuffled order."""
    rng = random.Random(sub_seed(seed, "ops"))
    sequence: List[str] = []
    for _ in range(rounds):
        round_kinds = list(kinds)
        rng.shuffle(round_kinds)
        sequence.extend(round_kinds)
    return sequence


def fingerprint(*parts) -> str:
    """SHA-256 over a nested structure of graphs, lists, tuples and scalars."""
    digest = hashlib.sha256()

    def feed(part) -> None:
        if isinstance(part, Graph):
            for u, v, w in part.edges():
                digest.update(f"{u},{v},{w!r};".encode())
        elif isinstance(part, (list, tuple)):
            digest.update(b"[")
            for item in part:
                feed(item)
            digest.update(b"]")
        else:
            digest.update(repr(part).encode())

    for part in parts:
        feed(part)
    return digest.hexdigest()
