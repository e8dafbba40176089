"""Batch input contract at the edge, pinned across oracles.

Every batch entry point normalises its ``pairs`` argument through
:func:`repro.core.oracle.as_pair_array`.  The table below pins what each
odd input does - answered exactly like the ``(N, 2)`` int64 ndarray of the
same pairs, or rejected with ``ValueError`` - on the monolithic index, the
shard router, the pair cache and one baseline, so a change to the
coercion (the typed pass for lists, the ``np.asarray`` fallback) cannot
silently widen, narrow or misalign what a caller gets back.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import DijkstraOracle
from repro.core.index import HC2LIndex
from repro.graph.generators import RoadNetworkSpec, synthetic_road_network
from repro.serving.cache import CachingOracle
from repro.serving.shards import ShardRouter

BASE = [(0, 5), (3, 11), (7, 7), (42, 3), (11, 3)]

#: inputs answered exactly as the int64 ndarray of the listed pairs
ACCEPTED = {
    "list-of-tuples": (lambda: list(BASE), BASE),
    "list-of-lists": (lambda: [list(p) for p in BASE], BASE),
    "tuple-of-tuples": (lambda: tuple(BASE), BASE),
    "numpy-ints-in-tuples": (lambda: [(np.int64(s), np.int32(t)) for s, t in BASE], BASE),
    "bool-beside-int": (lambda: [(True, 5)], [(1, 5)]),
    "uint32-array": (lambda: np.asarray(BASE, dtype=np.uint32), BASE),
    "empty-list": (lambda: [], []),
    "empty-tuple": (lambda: (), []),
}

#: inputs every oracle rejects with ValueError
REJECTED = {
    "float": lambda: [(0.5, 2)],
    "integral-float": lambda: [(1.0, 2)],
    "numpy-float": lambda: [(np.float64(1), 2)],
    "all-bool": lambda: [(True, False)],
    "short-pair": lambda: [(0, 1), (2,)],
    "misaligned-lengths": lambda: [(0, 1, 2), (3,)],
    "triple": lambda: [(0, 1, 2)],
    "beyond-int64": lambda: [(2**63, 1)],
    "negative-id": lambda: [(-1, 0)],
    "flat-list": lambda: [0, 1],
    "generator": lambda: (p for p in BASE),
    "strings": lambda: [("0", "1")],
    "none": lambda: [(None, 1)],
}

ORACLE_NAMES = ["HC2L", "ShardRouter", "CachingOracle", "Dijkstra"]


@pytest.fixture(scope="module")
def graph():
    network = synthetic_road_network(RoadNetworkSpec("input-edges", num_vertices=120, seed=23))
    return network.distance_graph


@pytest.fixture(scope="module")
def index(graph):
    return HC2LIndex.build(graph)


@pytest.fixture(scope="module")
def router(index, tmp_path_factory):
    path = tmp_path_factory.mktemp("edges") / "index.npz"
    index.save(path)
    index.save_sharded(path, num_shards=3)
    with ShardRouter(path) as router:
        yield router


@pytest.fixture(scope="module")
def oracles(graph, index, router):
    return {
        "HC2L": index,
        "ShardRouter": router,
        "CachingOracle": CachingOracle(index),
        "Dijkstra": DijkstraOracle.build(graph),
    }


def _reference(oracle, pairs) -> np.ndarray:
    return oracle.distances(np.asarray(pairs, dtype=np.int64).reshape(-1, 2))


@pytest.mark.parametrize("name", ORACLE_NAMES)
@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_accepted_input_matches_int64_array(oracles, name, case):
    make, pairs = ACCEPTED[case]
    oracle = oracles[name]
    got = oracle.distances(make())
    assert got.dtype == np.float64
    assert got.tolist() == _reference(oracle, pairs).tolist()


@pytest.mark.parametrize("name", ORACLE_NAMES)
@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_raises_value_error(oracles, name, case):
    with pytest.raises(ValueError):
        oracles[name].distances(REJECTED[case]())


@pytest.mark.parametrize(
    "make",
    [
        # np.asarray promotes uint64 beside a Python int to float64
        lambda: [(np.uint64(3), 11), (0, np.uint64(5))],
        # np.asarray makes an object array of iterators
        lambda: [iter((3, 11)), iter((0, 5))],
    ],
    ids=["uint64-beside-int", "iterator-pairs"],
)
def test_typed_pass_answers_what_asarray_rejected(oracles, make):
    """The typed pass reads each pair as two integers (``__index__``), so
    these batches, which the ``np.asarray`` path rejects, are answered."""
    for oracle in oracles.values():
        assert oracle.distances(make()).tolist() == _reference(oracle, [(3, 11), (0, 5)]).tolist()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_list_answers_equal_ndarray_answers(index, router, data):
    """Random batches answer the same as a list, a tuple and an int64 array."""
    n = index.graph.num_vertices
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)
    )
    array = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    for oracle in (index.engine, router):
        expected = oracle.distances(array).tolist()
        assert oracle.distances(pairs).tolist() == expected
        assert oracle.distances(tuple(map(list, pairs))).tolist() == expected
