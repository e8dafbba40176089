"""Minimum s-t vertex cuts via the split-vertex max-flow reduction.

Given the cut region of a balanced partition, Algorithm 2 of the paper
contracts the two initial partitions into virtual terminals ``S`` and ``T``
and asks for a minimum set of *vertices* whose removal disconnects them.
The classical reduction [Bondy & Murty 1976] splits every vertex ``v`` into
``v_in`` and ``v_out`` joined by a unit-capacity "inner" edge, turns every
original edge into two infinite-capacity "outer" edges, and runs max flow;
saturated inner edges crossing the residual-reachability boundary are the
cut vertices.

The paper notes that the maximal flow admits two canonical vertex cuts: the
one closest to ``S`` (inner edges whose tail is residual-reachable from S)
and the one closest to ``T``.  Both are returned so the caller can pick the
more balanced option.

Four max-flow solvers back the reduction, selected by ``method`` (the
:data:`FLOW_METHODS` registry - ``HC2LParameters`` validation and the CLI
consume the same tuple):

``dinitz``
    The reference pure-Python Dinitz solver (:mod:`repro.flow.dinitz`),
    unchanged since the original reproduction.

``matrix``
    The split network as typed edge arrays, solved by
    ``scipy.sparse.csgraph.maximum_flow`` (C speed) - or, without scipy,
    by an Edmonds-Karp loop whose per-augmentation BFS runs as vectorised
    numpy frontier sweeps.  This is the fast path the ``csr`` construction
    backend routes the hierarchy phase through.  Regions below
    :data:`_MATRIX_SMALL_REGION` run the compact Edmonds-Karp loop instead
    (the sparse-constructor round trip dominates at that size).

``python_ek``
    The compact Edmonds-Karp loop on paired flat edge lists for *every*
    region size.  Dependency-free; the default of the pure-python
    backends and the small-region delegate of the other array methods.

``push_relabel``
    FIFO push-relabel with gap + global relabeling
    (:mod:`repro.flow.push_relabel`) on the flat residual arrays, run to a
    genuine maximum flow so residual reachability is canonical.  Regions
    below :data:`_PUSH_RELABEL_SMALL_REGION` delegate to the compact
    Edmonds-Karp loop, mirroring the ``matrix`` method.

All solvers return the *same* canonical cuts: for any maximum flow, the
set of nodes residual-reachable from the source is the unique minimal
source side over all minimum cuts (and symmetrically for the sink), so the
extracted vertex cuts do not depend on which maximum flow was found.  The
partition-layer backend tests and the cross-solver fuzz wall pin this
equality down on seeded graphs.

Note on solver choice: the unit inner edges bound the flow value by the
cut size, which is tiny in practice (single digits on the bench graphs).
Augmenting-path solvers therefore finish in a handful of BFS rounds and
the C-speed scipy Dinic is the fastest large-region route; push-relabel
is provided as a correct, interchangeable kernel behind the switch, not
as the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.flow.dinitz import DinitzMaxFlow, FlowNetwork

WorkingAdjacency = Dict[int, Dict[int, float]]

#: Capacity standing in for "infinite" on outer edges of the Dinitz path;
#: any value larger than the number of vertices works because inner edges
#: bound the flow.
_OUTER_CAPACITY = float("inf")

#: Every max-flow solver the split-vertex reduction can run on.  This is
#: the single registry: ``minimum_vertex_cut_region`` dispatch,
#: ``HC2LParameters`` validation and the ``repro build --flow-method`` CLI
#: choices all consume it (plus the ``"auto"`` sentinel below).
FLOW_METHODS = ("dinitz", "matrix", "python_ek", "push_relabel")

#: ``"auto"`` defers the choice to the shortest-path backend (heap picks
#: ``python_ek``, csr picks ``matrix``); it is valid everywhere
#: a flow method is configured but never reaches
#: ``minimum_vertex_cut_region`` itself.
FLOW_METHOD_AUTO = "auto"

FLOW_METHOD_CHOICES = (FLOW_METHOD_AUTO,) + FLOW_METHODS


def check_flow_method(method: str, allow_auto: bool = True) -> str:
    """Validate a flow-method name against the registry, loudly.

    Raises a :class:`TypeError` for non-string specs and a
    :class:`ValueError` naming the valid set otherwise.  Returns the
    (unchanged) name so call sites can validate inline.
    """
    if not isinstance(method, str):
        raise TypeError(
            f"flow method must be a string, got {type(method).__name__}: {method!r}"
        )
    valid = FLOW_METHOD_CHOICES if allow_auto else FLOW_METHODS
    if method not in valid:
        raise ValueError(f"unknown flow method {method!r}; expected one of {valid}")
    return method


try:  # pragma: no cover - exercised via whichever env runs the suite
    from scipy.sparse import csr_matrix as _scipy_csr_matrix
    from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow
    from scipy.sparse.csgraph import breadth_first_order as _scipy_breadth_first_order
except ImportError:  # pragma: no cover
    _scipy_csr_matrix = None
    _scipy_maximum_flow = None
    _scipy_breadth_first_order = None


@dataclass
class MinVertexCutResult:
    """Result of a minimum s-t vertex cut computation.

    Attributes
    ----------
    cut_size:
        The max-flow value, i.e. the size of a minimum vertex cut.
    cut_closest_to_source / cut_closest_to_sink:
        The two canonical minimum vertex cuts extracted from the residual
        graph.  Both have exactly ``cut_size`` vertices.
    """

    cut_size: int
    cut_closest_to_source: List[int]
    cut_closest_to_sink: List[int]

    def candidate_cuts(self) -> List[List[int]]:
        """Both canonical cuts, de-duplicated."""
        cuts = [self.cut_closest_to_source]
        if set(self.cut_closest_to_sink) != set(self.cut_closest_to_source):
            cuts.append(self.cut_closest_to_sink)
        return cuts


def minimum_st_vertex_cut(
    adjacency: WorkingAdjacency,
    source_attached: Iterable[int],
    sink_attached: Iterable[int],
    method: str = "dinitz",
) -> MinVertexCutResult:
    """Minimum vertex cut separating the virtual terminals S and T.

    Parameters
    ----------
    adjacency:
        Working adjacency of the flow subgraph (the cut region plus the
        border vertices ``C_A``/``C_B`` of Algorithm 2).  Every vertex in
        this mapping may become a cut vertex.
    source_attached:
        Vertices receiving an edge from the virtual source ``S``
        (``N_S`` in Algorithm 2).
    sink_attached:
        Vertices receiving an edge to the virtual sink ``T`` (``N_T``).
    method:
        One of :data:`FLOW_METHODS` (see the module docstring); all
        produce identical cuts.

    Returns
    -------
    MinVertexCutResult
        The cut size and both canonical cuts.  When S and T are already
        disconnected inside the region the cut is empty.
    """
    vertices: List[int] = sorted(adjacency)
    index = {v: i for i, v in enumerate(vertices)}
    tails: List[int] = []
    heads: List[int] = []
    for v in vertices:
        vi = index[v]
        for w in adjacency[v]:
            wi = index.get(w)
            if wi is None:
                continue
            # each undirected edge appears once per direction of travel
            tails.append(vi)
            heads.append(wi)
    attach_s = sorted(index[v] for v in set(source_attached) if v in index)
    attach_t = sorted(index[v] for v in set(sink_attached) if v in index)
    return minimum_vertex_cut_region(
        vertices, tails, heads, attach_s, attach_t, method=method
    )


def minimum_vertex_cut_region(
    vertices: Sequence[int],
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
    method: str = "dinitz",
) -> MinVertexCutResult:
    """Minimum S-T vertex cut of a flow region given as edge arrays.

    ``vertices`` maps region-local ids to original vertex ids; ``tails`` /
    ``heads`` list every *directed* edge of the region (both directions of
    each undirected edge) in local ids; ``attach_s`` / ``attach_t`` are the
    local ids attached to the virtual terminals.  This is the entry point
    the array-based balanced cut uses - no dict adjacency is materialised.
    """
    check_flow_method(method, allow_auto=False)
    k = len(vertices)

    solver = _SOLVERS[method]
    source_side, sink_side, flow_value = solver(k, tails, heads, attach_s, attach_t)

    # a cut vertex is one whose inner edge is saturated and separates the
    # reachable side from the rest; slicing the interleaved in/out masks
    # beats a python scan over every region vertex
    source_side = np.asarray(source_side, dtype=bool)
    sink_side = np.asarray(sink_side, dtype=bool)
    near_source = np.nonzero(source_side[0 : 2 * k : 2] & ~source_side[1 : 2 * k : 2])[0]
    near_sink = np.nonzero(sink_side[1 : 2 * k : 2] & ~sink_side[0 : 2 * k : 2])[0]
    cut_near_source = [vertices[i] for i in near_source.tolist()]
    cut_near_sink = [vertices[i] for i in near_sink.tolist()]
    return MinVertexCutResult(
        cut_size=int(round(flow_value)),
        cut_closest_to_source=sorted(cut_near_source),
        cut_closest_to_sink=sorted(cut_near_sink),
    )


# --------------------------------------------------------------------- #
# solvers
# --------------------------------------------------------------------- #
def _solve_dinitz(
    k: int,
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> Tuple[Sequence[bool], Sequence[bool], float]:
    """The reference Dinitz solver over a :class:`FlowNetwork`."""
    source_node = 2 * k
    sink_node = 2 * k + 1
    network = FlowNetwork(2 * k + 2)
    for i in range(k):
        network.add_edge(2 * i, 2 * i + 1, 1.0)
    for vi, wi in zip(tails, heads):
        network.add_edge(2 * vi + 1, 2 * wi, _OUTER_CAPACITY)
    for vi in attach_s:
        network.add_edge(source_node, 2 * vi, _OUTER_CAPACITY)
    for vi in attach_t:
        network.add_edge(2 * vi + 1, sink_node, _OUTER_CAPACITY)

    solver = DinitzMaxFlow(network, source_node, sink_node)
    flow_value = solver.solve(flow_limit=float(k) + 1.0)
    reach_source = solver.source_side()
    reach_sink = solver.sink_side()
    num_nodes = 2 * k + 2
    source_side = [node in reach_source for node in range(num_nodes)]
    sink_side = [node in reach_sink for node in range(num_nodes)]
    return source_side, sink_side, flow_value


def _split_network_arrays(
    k: int,
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The split network as ``(num_nodes, src, dst, cap, source, sink)``.

    Capacities are integers: 1 on inner edges, ``k + 1`` (an unreachable
    bound - every augmenting path crosses a unit inner edge, so no edge
    ever carries more than ``k`` units) standing in for infinity on outer
    and terminal edges.  Saturation behaviour therefore matches the
    float-infinity Dinitz network exactly.
    """
    big = k + 1
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    attach_s = np.asarray(attach_s, dtype=np.int64)
    attach_t = np.asarray(attach_t, dtype=np.int64)
    inner = np.arange(k, dtype=np.int64)
    src = np.concatenate([2 * inner, 2 * tails + 1, np.full(len(attach_s), 2 * k), 2 * attach_t + 1])
    dst = np.concatenate([2 * inner + 1, 2 * heads, 2 * attach_s, np.full(len(attach_t), 2 * k + 1)])
    cap = np.concatenate(
        [
            np.ones(k, dtype=np.int64),
            np.full(len(tails) + len(attach_s) + len(attach_t), big, dtype=np.int64),
        ]
    )
    return 2 * k + 2, src, dst, cap, 2 * k, 2 * k + 1


#: Regions smaller than this solve faster with the compact Edmonds-Karp
#: loop than with a scipy matrix round-trip (fixed sparse-constructor
#: cost).  Measured on the 3.2k bench region population: with the
#: aligned-residual scipy path and the early-exit BFS in the EK loop the
#: crossover sits near 200 - the EK's cheap construction wins as long as
#: the handful of augmenting BFS rounds stays cheap.
_MATRIX_SMALL_REGION = 192

#: The push-relabel kernel pays per-node bookkeeping that only amortises
#: on larger regions; below this it delegates to the compact Edmonds-Karp
#: loop, mirroring the ``matrix`` method's small-region route.
_PUSH_RELABEL_SMALL_REGION = 64


def _solve_matrix(
    k: int,
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> Tuple[Sequence[bool], Sequence[bool], float]:
    """Array-based solver family for the ``matrix`` method.

    Small regions run a compact Edmonds-Karp over paired edge arrays (the
    flow value is bounded by the cut size, so only a handful of BFS rounds
    run); larger regions go through ``scipy.sparse.csgraph.maximum_flow``
    (or the numpy Edmonds-Karp without scipy).  All of them extract the
    canonical cuts from residual reachability, which is identical for
    every maximum flow - mixing solvers never changes a cut.
    """
    if k < _MATRIX_SMALL_REGION:
        return _solve_python_ek(k, tails, heads, attach_s, attach_t)
    num_nodes, src, dst, cap, source, sink = _split_network_arrays(
        k, tails, heads, attach_s, attach_t
    )
    if _scipy_maximum_flow is not None and _scipy_csr_matrix is not None:
        flow_value, res_src, res_dst = _scipy_residual_edges(num_nodes, src, dst, cap, source, sink)
    else:
        flow_value, res_src, res_dst = _numpy_residual_edges(num_nodes, src, dst, cap, source, sink)
    source_side = _reachable(num_nodes, res_src, res_dst, source)
    sink_side = _reachable(num_nodes, res_dst, res_src, sink)  # reversed edges
    return source_side, sink_side, float(flow_value)


def _solve_push_relabel(
    k: int,
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> Tuple[Sequence[bool], Sequence[bool], float]:
    """FIFO push-relabel solver for the ``push_relabel`` method.

    Large regions run the gap + global-relabel kernel of
    :mod:`repro.flow.push_relabel` on the flat residual arrays; small
    regions delegate to the compact Edmonds-Karp loop (same split as the
    ``matrix`` method).  Cuts are canonical either way.
    """
    if k < _PUSH_RELABEL_SMALL_REGION:
        return _solve_python_ek(k, tails, heads, attach_s, attach_t)
    from repro.flow.push_relabel import push_relabel_max_flow

    num_nodes, src, dst, cap, source, sink = _split_network_arrays(
        k, tails, heads, attach_s, attach_t
    )
    flow_value, res_src, res_dst = push_relabel_max_flow(
        num_nodes, src, dst, cap, source, sink
    )
    source_side = _reachable(num_nodes, res_src, res_dst, source)
    sink_side = _reachable(num_nodes, res_dst, res_src, sink)  # reversed edges
    return source_side, sink_side, float(flow_value)


def _solve_python_ek(
    k: int,
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> Tuple[List[bool], List[bool], float]:
    """Compact Edmonds-Karp over paired edge lists (small regions).

    Integer capacities, flat ``e_to`` / ``e_cap`` lists with ``index ^ 1``
    partner addressing, one BFS per unit of flow.  The unit inner edges
    bound the augmentation count by the cut size.
    """
    from collections import deque

    # The residual arrays are assembled vectorised: forward edge 2j and
    # backward edge 2j+1 for split-network edge j, adjacency lists carved
    # out of one stable counting sort by edge tail.  The stable sort keeps
    # edges in id order within each vertex, i.e. the exact adjacency order
    # an append-per-edge python loop would produce.
    num_nodes, src, dst, cap, source, sink = _split_network_arrays(
        k, tails, heads, attach_s, attach_t
    )
    num_edges = len(src)
    e_to_np = np.empty(2 * num_edges, dtype=np.int64)
    e_to_np[0::2] = dst
    e_to_np[1::2] = src
    e_from_np = np.empty(2 * num_edges, dtype=np.int64)
    e_from_np[0::2] = src
    e_from_np[1::2] = dst
    e_cap_np = np.zeros(2 * num_edges, dtype=np.int64)
    e_cap_np[0::2] = cap
    order = np.argsort(e_from_np, kind="stable")
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(e_from_np, minlength=num_nodes), out=indptr[1:])
    flat_adj = order.tolist()
    bounds = indptr.tolist()
    e_to: List[int] = e_to_np.tolist()
    e_cap: List[int] = e_cap_np.tolist()
    adjacency: List[List[int]] = [
        flat_adj[bounds[v] : bounds[v + 1]] for v in range(num_nodes)
    ]

    total = 0
    while True:
        parent = [-1] * num_nodes
        parent[source] = -2
        queue = deque([source])
        while queue and parent[sink] == -1:
            v = queue.popleft()
            for edge in adjacency[v]:
                if e_cap[edge] > 0:
                    w = e_to[edge]
                    if parent[w] == -1:
                        # the first labelling wins, so stopping the scan
                        # as soon as the sink is labelled augments the
                        # exact same path the full sweep would pick
                        if w == sink:
                            parent[w] = edge
                            break
                        parent[w] = edge
                        queue.append(w)
        if parent[sink] == -1:
            break
        path: List[int] = []
        node = sink
        while node != source:
            edge = parent[node]
            path.append(edge)
            node = e_to[edge ^ 1]
        bottleneck = min(e_cap[edge] for edge in path)
        for edge in path:
            e_cap[edge] -= bottleneck
            e_cap[edge ^ 1] += bottleneck
        total += bottleneck

    # the final failing BFS explored the full residual graph from the
    # source (the sink early-exit never fired), so its labels ARE the
    # source-side reachability - no separate sweep needed
    source_side = [p != -1 for p in parent]
    sink_side = [False] * num_nodes
    sink_side[sink] = True
    stack = [sink]
    while stack:
        v = stack.pop()
        # an edge u -> v is usable towards the sink iff its residual
        # capacity is positive, so scan v's partner edges (as in Dinitz)
        for edge in adjacency[v]:
            if e_cap[edge ^ 1] > 0:
                w = e_to[edge]
                if not sink_side[w]:
                    sink_side[w] = True
                    stack.append(w)
    return source_side, sink_side, float(total)


def _scipy_residual_edges(
    num_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    cap: np.ndarray,
    source: int,
    sink: int,
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Max flow via scipy; returns the positive-residual edge list.

    The capacity matrix is handed to scipy with an explicit zero-capacity
    reverse for every edge (the split network never carries anti-parallel
    capacity edges, so the symmetric pattern has no collisions).  scipy's
    ``result.flow`` lives on exactly that union pattern, so when the
    returned indices line up with the input's the residual is one aligned
    ``capacity - flow`` array subtraction instead of a sparse-matrix
    subtraction plus COO round-trip (~3x less per region).
    """
    double_src = np.concatenate([src, dst])
    double_dst = np.concatenate([dst, src])
    double_cap = np.concatenate([cap, np.zeros(len(cap), dtype=cap.dtype)])
    order = np.lexsort((double_dst, double_src))
    double_src = double_src[order]
    double_dst = double_dst[order]
    double_cap = double_cap[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(double_src, minlength=num_nodes), out=indptr[1:])
    matrix = _scipy_csr_matrix(
        (double_cap, double_dst, indptr), shape=(num_nodes, num_nodes)
    )
    result = _scipy_maximum_flow(matrix, source, sink)
    flow = result.flow
    if np.array_equal(flow.indptr, matrix.indptr) and np.array_equal(
        flow.indices, matrix.indices
    ):
        residual_data = double_cap - flow.data
        positive = residual_data > 0
        return int(result.flow_value), double_src[positive], double_dst[positive]
    # defensive fallback: alignment is a scipy implementation detail
    residual = (matrix - flow).tocoo()
    positive = residual.data > 0
    return int(result.flow_value), residual.row[positive], residual.col[positive]


def _numpy_residual_edges(
    num_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    cap: np.ndarray,
    source: int,
    sink: int,
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Edmonds-Karp with numpy frontier BFS (the scipy-free fast path).

    Augmenting paths are found by a vectorised BFS that records, for every
    newly reached node, the residual edge it was reached through; the path
    walk-back and capacity update are short scalar loops (path length, not
    graph size).  Unit inner capacities bound the number of augmentations
    by the cut size, so only a handful of BFS rounds run per region.
    """
    # paired residual edges: forward edge 2e, reverse edge 2e + 1
    e_to = np.empty(2 * len(src), dtype=np.int64)
    e_to[0::2] = dst
    e_to[1::2] = src
    e_from = np.empty_like(e_to)
    e_from[0::2] = src
    e_from[1::2] = dst
    e_cap = np.zeros(2 * len(src), dtype=np.int64)
    e_cap[0::2] = cap

    order = np.argsort(e_from, kind="stable")
    sorted_edges = order  # edge ids grouped by tail node
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr[1:], e_from, 1)
    np.cumsum(indptr, out=indptr)

    total = 0
    no_parent = 2 * len(src)  # larger than any edge id
    while True:
        parent_edge = np.full(num_nodes, no_parent, dtype=np.int64)
        visited = np.zeros(num_nodes, dtype=bool)
        visited[source] = True
        frontier = np.asarray([source], dtype=np.int64)
        while frontier.size and not visited[sink]:
            edges = sorted_edges[_frontier_slots(indptr, frontier)]
            usable = e_cap[edges] > 0
            edges = edges[usable]
            targets = e_to[edges]
            fresh = ~visited[targets]
            edges = edges[fresh]
            targets = targets[fresh]
            if edges.size == 0:
                break
            # several edges may reach the same node in one sweep; keep the
            # lowest edge id per target (deterministic, any choice yields
            # the same final cut)
            np.minimum.at(parent_edge, targets, edges)
            frontier = np.unique(targets)
            visited[frontier] = True
        if not visited[sink]:
            break
        # walk the augmenting path back from the sink
        path: List[int] = []
        node = sink
        while node != source:
            edge = int(parent_edge[node])
            path.append(edge)
            node = int(e_from[edge])
        bottleneck = int(min(e_cap[edge] for edge in path))
        for edge in path:
            e_cap[edge] -= bottleneck
            e_cap[edge ^ 1] += bottleneck
        total += bottleneck

    positive = e_cap > 0
    return total, e_from[positive], e_to[positive]


def _frontier_slots(indptr: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Flat CSR slot indices of every entry owned by the frontier nodes.

    The one subtle piece of index arithmetic both numpy BFS loops share:
    for each node ``v`` in ``frontier`` it expands to the index range
    ``indptr[v] .. indptr[v + 1] - 1``, concatenated.
    """
    counts = indptr[frontier + 1] - indptr[frontier]
    return np.repeat(indptr[frontier], counts) + (
        np.arange(int(counts.sum()), dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts)
    )


def _reachable(num_nodes: int, src: np.ndarray, dst: np.ndarray, start: int) -> np.ndarray:
    """Boolean reachability mask over ``(src, dst)`` edges from ``start``.

    With scipy available the scan runs through ``breadth_first_order`` on
    a boolean CSR matrix (a C loop; ~5x faster than the numpy frontier
    sweep on the large bench regions, where this scan used to be half the
    scipy flow path's cost).  The numpy sweep remains the fallback.
    """
    if _scipy_breadth_first_order is not None and _scipy_csr_matrix is not None:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        # build the CSR triple by counting sort instead of the COO
        # constructor round-trip; residual edge lists arrive row-sorted
        # from the aligned scipy path, so the argsort usually skips
        if len(src) and np.any(np.diff(src) < 0):
            order = np.argsort(src, kind="stable")
            src = src[order]
            dst = dst[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        matrix = _scipy_csr_matrix(
            (np.ones(len(src), dtype=np.int8), dst, indptr),
            shape=(num_nodes, num_nodes),
        )
        nodes = _scipy_breadth_first_order(
            matrix, start, directed=True, return_predecessors=False
        )
        seen = np.zeros(num_nodes, dtype=bool)
        seen[nodes] = True
        return seen
    order = np.argsort(src, kind="stable")
    dst = np.asarray(dst, dtype=np.int64)[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr[1:], np.asarray(src, dtype=np.int64), 1)
    np.cumsum(indptr, out=indptr)
    seen = np.zeros(num_nodes, dtype=bool)
    seen[start] = True
    frontier = np.asarray([start], dtype=np.int64)
    while frontier.size:
        targets = dst[_frontier_slots(indptr, frontier)]
        targets = np.unique(targets[~seen[targets]])
        seen[targets] = True
        frontier = targets
    return seen


#: Method-name -> solver dispatch for :func:`minimum_vertex_cut_region`.
#: Keys mirror :data:`FLOW_METHODS` exactly (checked by the test suite).
_SOLVERS = {
    "dinitz": _solve_dinitz,
    "matrix": _solve_matrix,
    "python_ek": _solve_python_ek,
    "push_relabel": _solve_push_relabel,
}


def is_vertex_cut(
    adjacency: WorkingAdjacency,
    cut: Sequence[int],
    side_a: Iterable[int],
    side_b: Iterable[int],
) -> bool:
    """Check that removing ``cut`` disconnects every ``side_a`` vertex from ``side_b``.

    A dict-of-dicts reference check for the tests; no construction path
    calls it.
    """
    cut_set = set(cut)
    targets = {v for v in side_b if v not in cut_set}
    if not targets:
        return True
    seen: Set[int] = set()
    stack = [v for v in side_a if v not in cut_set]
    seen.update(stack)
    while stack:
        v = stack.pop()
        if v in targets:
            return False
        for w in adjacency.get(v, ()):
            if w in cut_set or w in seen or w not in adjacency:
                continue
            seen.add(w)
            stack.append(w)
    return True
