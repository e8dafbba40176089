"""Dynamic edge-weight updates (Section 5.4 of the paper).

The paper's closing remarks observe that the balanced tree hierarchy does
not depend on edge weights - only the shortcut weights and the distance
values do - so when travel times change (road closures, congestion) the
hierarchy can be preserved and only the labels need refreshing.  This
module implements exactly that: :func:`relabel` re-runs the labelling pass
of the construction over an *existing* hierarchy with new edge weights,
skipping the expensive balanced-cut computations entirely.

Relabelling runs on the construction's substrate: CSR snapshots
(:class:`~repro.core.flat.FlatWorkingGraph`).  The root is the new core
graph's CSR.  Every node ranks its inherited cut and computes its label
arrays with the construction's per-node functions, and every child
snapshot comes from :func:`repro.core.flat_build.derive_child`, as in
:func:`~repro.core.flat_build.node_step`.  Two things exist only here.
The scoped walk also derives the *old* snapshots, to find the subtrees
whose working graph did not change and splice their labels over.  The
crossing extension handles shortcuts that cross an inherited cut (see
:func:`_crossing_extension`).

Topology changes (adding or removing edges/vertices) are out of scope, as
in the paper; :class:`DynamicHC2LIndex` raises for them and a full rebuild
is required.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.backends import ShortestPathBackend, resolve_backend
from repro.core.construction import ConstructionStats
from repro.core.flat import FlatWorkingGraph
from repro.core.flat_build import derive_child
from repro.core.index import HC2LIndex, HC2LParameters
from repro.core.labelling import HC2LLabelling, node_distance_arrays
from repro.core.ranking import CutRanking, rank_cut_vertices
from repro.graph.contraction import ContractedGraph, contract_degree_one
from repro.graph.graph import Graph
from repro.hierarchy.tree import BalancedTreeHierarchy, TreeNode
from repro.partition.shortcuts import border_vertices

INF = float("inf")


#: edge keys accepted by :func:`relabel`'s ``changed_edges``: a mapping or
#: iterable of ``(u, v)`` pairs in original vertex ids, any orientation
ChangedEdges = Union[Mapping[Tuple[int, int], float], Iterable[Tuple[int, int]]]


def relabel(
    index: HC2LIndex,
    new_graph: Graph,
    changed_edges: Optional[ChangedEdges] = None,
) -> HC2LIndex:
    """Rebuild the labels of ``index`` for ``new_graph`` reusing its hierarchy.

    ``new_graph`` must have exactly the same vertices and edges as the
    graph the index was built from - only edge weights may differ.  The
    balanced tree hierarchy (which cuts exist and which subtree every
    vertex belongs to) is preserved; cut-vertex ranks, shortcuts and all
    distance arrays are recomputed under the new weights.

    ``changed_edges`` optionally declares which edges changed (a mapping
    or iterable of ``(u, v)`` pairs, any orientation).  When given, the
    relabelling is *scoped*: only hierarchy subtrees whose working
    subgraph actually changed under the new weights are recomputed, and
    the label levels of untouched subtrees are spliced over from the old
    index bit-for-bit.  The declaration is validated against the real
    weight diff between the two graphs - an undeclared change raises
    rather than silently serving stale distances.  When the touched
    region is large enough that scoping would not pay, the full pass runs
    instead (same result either way).
    """
    start = time.perf_counter()

    diff = _topology_checked_diff(index.graph, new_graph)
    if changed_edges is not None:
        _check_declared_changes(diff, changed_edges)

    if index.parameters.contract:
        contraction = _reweighted_contraction(index.contraction, new_graph, diff)
        if contraction is None:
            contraction = contract_degree_one(new_graph)
            _check_same_contraction(index.contraction, contraction)
    else:
        from repro.core.index import _identity_contraction

        contraction = _identity_contraction(new_graph)

    hierarchy = index.hierarchy
    core = contraction.core
    labelling = HC2LLabelling(core.num_vertices)
    stats = ConstructionStats()
    flat = FlatWorkingGraph.from_graph(core)
    # legacy pickled parameters may predate the backend field
    backend = resolve_backend(getattr(index.parameters, "backend", "auto"))

    new_hierarchy = _copy_hierarchy_structure(hierarchy)
    roots = [node for node in hierarchy.nodes if node.parent is None]

    core_diff = _core_diff_edges(index.contraction, diff)
    scoped = changed_edges is not None and _scoping_pays(hierarchy, core_diff)
    extra: Dict[str, float] = {}
    if scoped:
        old_flat = FlatWorkingGraph.from_graph(index.contraction.core)
        delta = sorted({(min(u, v), max(u, v)) for u, v in core_diff})
        counters = {"recomputed": 0, "spliced": 0}
        for root in roots:
            _scoped_node(
                index,
                root,
                old_flat,
                flat,
                delta,
                new_hierarchy,
                labelling,
                stats,
                index.parameters,
                backend,
                counters,
            )
        extra = {
            "relabel_scoped": 1.0,
            "relabel_nodes_recomputed": float(counters["recomputed"]),
            "relabel_nodes_spliced": float(counters["spliced"]),
        }
    else:
        for root in roots:
            _relabel_node(
                index, root, flat, new_hierarchy, labelling, stats, index.parameters, backend
            )

    elapsed = time.perf_counter() - start
    return HC2LIndex(
        graph=new_graph,
        parameters=index.parameters,
        contraction=contraction,
        hierarchy=new_hierarchy,
        labelling=labelling,
        stats=stats,
        construction_seconds=elapsed,
        extra=extra,
    )


def _topology_checked_diff(old: Graph, new: Graph) -> List[Tuple[int, int]]:
    """One pass computing the weight diff and enforcing identical topology."""
    if old.num_vertices != new.num_vertices:
        raise ValueError(
            f"relabel requires identical topology; vertex counts differ "
            f"({old.num_vertices} vs {new.num_vertices})"
        )
    if old.num_edges != new.num_edges:
        raise ValueError(
            f"relabel requires identical topology; edge counts differ "
            f"({old.num_edges} vs {new.num_edges})"
        )
    new_weights = {(u, v): w for u, v, w in new.edges()}
    diff = []
    for u, v, w in old.edges():
        new_w = new_weights.get((u, v))
        if new_w is None:
            raise ValueError(f"relabel requires identical topology; edge ({u}, {v}) is missing")
        if new_w != w:
            diff.append((u, v))
    return diff


def _check_declared_changes(
    diff: Sequence[Tuple[int, int]], changed_edges: ChangedEdges
) -> None:
    """Every actually-changed edge must be declared; anything else is a lie."""
    declared = {(min(u, v), max(u, v)) for u, v in changed_edges}
    undeclared = [edge for edge in diff if edge not in declared]
    if undeclared:
        raise ValueError(
            f"changed_edges omits {len(undeclared)} edge(s) whose weight actually "
            f"changed (scoped relabel would serve stale distances): {undeclared[:5]}"
        )


def _reweighted_contraction(
    contraction: ContractedGraph, new_graph: Graph, diff: Sequence[Tuple[int, int]]
) -> Optional[ContractedGraph]:
    """Rebuild the contraction for ``new_graph`` without re-running it.

    The degree-one contraction is purely topological and ``relabel``
    requires identical topology, so the structure (which vertices
    contract, attachment trees, depths) always carries over.  When no
    changed edge touches a contracted vertex the attachment-tree distance
    arrays are untouched too, and only the core graph's changed edges
    need reweighting.  Returns ``None`` when a pendant edge changed (the
    caller re-runs the full contraction to refresh the distance arrays).
    """
    core_weights: Dict[Tuple[int, int], float] = {}
    for u, v in diff:
        cu, cv = contraction.original_to_core[u], contraction.original_to_core[v]
        if cu < 0 or cv < 0:
            return None
        core_weights[(min(cu, cv), max(cu, cv))] = new_graph.edge_weight(u, v)
    return ContractedGraph(
        core=contraction.core.reweighted(core_weights),
        core_to_original=contraction.core_to_original,
        original_to_core=contraction.original_to_core,
        root=contraction.root,
        parent=contraction.parent,
        dist_to_parent=contraction.dist_to_parent,
        dist_to_root=contraction.dist_to_root,
        depth=contraction.depth,
        num_original=contraction.num_original,
    )


def _core_diff_edges(
    contraction: ContractedGraph, diff: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Map changed original edges to core-id edges.

    Edges with a contracted endpoint live entirely inside an attachment
    tree: they affect only the contraction's distance arrays (recomputed
    from scratch by every relabel), never the core labels.
    """
    core_edges = []
    for u, v in diff:
        cu, cv = contraction.original_to_core[u], contraction.original_to_core[v]
        if cu >= 0 and cv >= 0:
            core_edges.append((cu, cv))
    return core_edges


def _scoping_pays(
    hierarchy: BalancedTreeHierarchy, core_diff: Sequence[Tuple[int, int]]
) -> bool:
    """Estimate whether the scoped walk beats the full pass.

    A changed core edge ``(a, b)`` dirties exactly the nodes on the
    root-to-LCA(a, b) chain (the nodes whose working subgraph contains
    both endpoints); descendants are only touched if their inherited
    shortcuts shift, which the walk detects by adjacency equality.  Each
    dirty node costs roughly twice a full-pass node (old-side cut
    distances are recomputed too), so scoping pays when twice the dirty
    cost is below the whole-tree cost.
    """
    if not hierarchy.nodes:
        return True
    dirty: Set[int] = set()
    for a, b in core_diff:
        node: Optional[TreeNode] = hierarchy.lca_node(a, b)
        while node is not None:
            if node.index in dirty:
                break
            dirty.add(node.index)
            node = hierarchy.nodes[node.parent] if node.parent is not None else None

    def cost(node: TreeNode) -> int:
        return max(1, node.subtree_size) * max(1, len(node.cut))

    dirty_cost = sum(cost(hierarchy.nodes[i]) for i in dirty)
    total_cost = sum(cost(node) for node in hierarchy.nodes)
    return 2 * dirty_cost < total_cost


def _scoped_node(
    index: HC2LIndex,
    node: TreeNode,
    old_flat: FlatWorkingGraph,
    new_flat: FlatWorkingGraph,
    delta: Sequence[Tuple[int, int]],
    new_hierarchy: BalancedTreeHierarchy,
    labelling: HC2LLabelling,
    stats: ConstructionStats,
    parameters: HC2LParameters,
    backend: ShortestPathBackend,
    counters: Dict[str, int],
) -> None:
    """Scoped relabel of one node: splice when untouched, recompute when not.

    Labels at a node are a deterministic function of its working
    subgraph's *content* (induced edges plus inherited shortcuts) and the
    cut vertex set - ranking and tail pruning both derive from the same
    distance searches.  ``delta`` is the exact set of (normalised) edge
    keys on which the ``old_flat`` and ``new_flat`` snapshots differ,
    maintained along the recursion; an empty delta means the two working
    graphs are identical, so the old labels of the whole subtree are
    exactly what a full relabel would recompute, and we splice them over
    instead.
    """
    old_hierarchy = index.hierarchy
    if not delta:
        _splice_subtree(index, node, labelling, stats, counters)
        return

    counters["recomputed"] += 1
    # Cut-crossing shortcuts (see _crossing_extension) void the premise of
    # the splice test - the child working graph then also depends on the
    # extension hubs' distances - so the whole subtree falls back to the
    # plain per-node recompute, which handles the extension.  The old side
    # is checked too: an earlier relabel may have left crossing edges that
    # the old-side shortcut reconstruction below would not reproduce.
    if _crossing_extension(new_flat, node, old_hierarchy) or _crossing_extension(
        old_flat, node, old_hierarchy
    ):
        _relabel_node(
            index, node, new_flat, new_hierarchy, labelling, stats, parameters, backend
        )
        return
    with stats.timer.measure("labelling"):
        ranking = rank_cut_vertices(new_flat, node.cut, backend=backend)
        arrays, cut_distances = node_distance_arrays(
            new_flat, ranking, parameters.tail_pruning, backend=backend
        )
    _record_node(new_hierarchy, node, ranking, new_flat, arrays, labelling, stats)
    if node.is_leaf:
        return

    old_cut = list(node.cut)
    children = []
    for child_index in (node.left, node.right):
        if child_index is None:
            continue
        child_node = old_hierarchy.nodes[child_index]
        child_vertices = old_hierarchy.subtree_vertices(child_index)
        members = set(child_vertices)
        delta_within = [(u, v) for u, v in delta if u in members and v in members]
        borders_old = border_vertices(old_flat, child_vertices, old_cut)
        borders_new = border_vertices(new_flat, child_vertices, old_cut)
        children.append(
            (child_node, child_vertices, delta_within, borders_old, borders_new)
        )

    # Old-side cut distances.  Exact Dijkstra distances are determined by
    # the edge weights alone (every relaxation evaluates the same
    # ``dist[u] + w`` candidates, whatever the search order), so plain
    # ``sssp_many`` reproduces the original build's cut distance maps
    # bit-for-bit without the prune bookkeeping of the labelling pass.
    # Only border values are ever consulted (the splice test here and
    # ``dist_c.get(b)`` in Algorithm 3), so the maps cover borders only.
    old_rows = backend.sssp_many(old_flat, old_flat.dense_ids(old_cut))
    border_union = sorted(
        {b for _, _, _, bo, bn in children for b in bo}
        | {b for _, _, _, bo, bn in children for b in bn}
    )
    border_dense = old_flat.dense_ids(border_union)
    old_cut_distances: Dict[int, Dict[int, float]] = {}
    for cut_vertex, row in zip(old_cut, old_rows):
        entries = {}
        for border, j in zip(border_union, border_dense):
            value = float(row[j])
            if value != INF:
                entries[border] = value
        old_cut_distances[cut_vertex] = entries

    for child_node, child_vertices, delta_within, borders_old, borders_new in children:
        # The child's working graph is a pure function of the restricted
        # region content, the border set and the cut distances *at the
        # borders* (Algorithm 3 consults nothing else).  When all three
        # are unchanged the child's shortcuts - and hence its entire
        # subtree's labels - are unchanged too: splice without running a
        # single old- or new-side shortcut search.
        if (
            not delta_within
            and borders_old == borders_new
            and _border_distances_equal(
                old_cut_distances, cut_distances, old_cut, borders_old
            )
        ):
            _splice_subtree(index, child_node, labelling, stats, counters)
            continue
        new_child, shortcuts = derive_child(
            new_flat,
            ranking.ordered,
            child_vertices,
            cut_distances,
            backend=backend,
            timer=stats.timer,
        )
        old_child, old_shortcuts = derive_child(
            old_flat,
            old_cut,
            child_vertices,
            old_cut_distances,
            backend=backend,
            timer=stats.timer,
        )
        stats.num_shortcuts += len(shortcuts)
        # exact child delta: inherited diffs plus any key a shortcut (on
        # either side) could have introduced or modified, value-compared
        candidates = set(delta_within)
        candidates.update((min(s.u, s.v), max(s.u, s.v)) for s in shortcuts)
        candidates.update((min(s.u, s.v), max(s.u, s.v)) for s in old_shortcuts)
        child_delta = [
            (u, v)
            for u, v in candidates
            if _edge_weight(old_child, u, v) != _edge_weight(new_child, u, v)
        ]
        _scoped_node(
            index,
            child_node,
            old_child,
            new_child,
            child_delta,
            new_hierarchy,
            labelling,
            stats,
            parameters,
            backend,
            counters,
        )


def _edge_weight(flat: FlatWorkingGraph, u: int, v: int) -> Optional[float]:
    """Weight of the snapshot edge ``(u, v)`` (original ids), ``None`` if absent."""
    position = flat.edge_position(flat.dense_id[u], flat.dense_id[v])
    return None if position < 0 else float(flat.csr_arrays()[2][position])


def _border_distances_equal(
    old_cut_distances: Mapping[int, Mapping[int, float]],
    new_cut_distances: Mapping[int, Mapping[int, float]],
    cut: Sequence[int],
    borders: Sequence[int],
) -> bool:
    """Whether every cut-to-border distance is unchanged (exact float equality)."""
    for cut_vertex in cut:
        old_map = old_cut_distances[cut_vertex]
        new_map = new_cut_distances[cut_vertex]
        for border in borders:
            if old_map.get(border) != new_map.get(border):
                return False
    return True


def _splice_subtree(
    index: HC2LIndex,
    node: TreeNode,
    labelling: HC2LLabelling,
    stats: ConstructionStats,
    counters: Dict[str, int],
) -> None:
    """Copy the old label levels of the subtree rooted at ``node`` verbatim.

    Every vertex of the region owns one level per ancestor depth from
    ``node.depth`` down to its own node; ancestors above ``node`` already
    appended the shallower levels, so appending the old arrays in depth
    order keeps the per-vertex level sequence contiguous.
    """
    old_hierarchy = index.hierarchy
    old_flat = index.flat_labelling()
    stack = [node.index]
    while stack:
        current = old_hierarchy.nodes[stack.pop()]
        counters["spliced"] += 1
        stats.num_nodes += 1
        if current.is_leaf:
            stats.num_leaves += 1
        for child_index in (current.left, current.right):
            if child_index is not None:
                stack.append(child_index)
    labels = labelling.labels
    for vertex in old_hierarchy.subtree_vertices(node.index):
        levels = labels[vertex]
        for depth in range(node.depth, old_flat.num_levels(vertex)):
            # zero-copy: append read-only views into the old flat buffers;
            # FlatLabelling.from_labelling copies them into the new buffers
            levels.append(old_flat.level_view(vertex, depth))


def _crossing_extension(
    flat: FlatWorkingGraph,
    node: TreeNode,
    hierarchy: BalancedTreeHierarchy,
) -> List[int]:
    """Endpoints of working-graph edges that cross between ``node``'s children.

    The construction can never produce such edges: the balanced cut is
    computed *on* the node's working graph, so no edge - original or
    shortcut - connects the two partitions.  A relabel inherits the cut
    but recomputes the shortcuts under new weights, and a new shortcut
    may connect the two (inherited) child regions directly.  The cut is
    then no longer a separator of the working graph, and both the
    single-depth query (Equation 7) and the via-cut shortcut formula
    (Algorithm 3) would miss paths running over the crossing edge.  Every
    such path passes through the edge's endpoints, so promoting the
    endpoints to additional hubs of the node restores coverage.
    """
    if node.is_leaf or node.left is None or node.right is None:
        return []
    side = np.zeros(len(flat.vertices), dtype=np.int8)
    side[flat.dense_ids(hierarchy.subtree_vertices(node.left))] = 1
    side[flat.dense_ids(hierarchy.subtree_vertices(node.right))] = 2
    _, heads, _ = flat.csr_arrays()
    tails = flat.tails()
    crossing = (side[tails] == 1) & (side[heads] == 2)
    # both directions of an undirected edge are stored, so the left-to-right
    # half names every crossing edge; sorted dense ids are sorted originals
    ends = np.union1d(tails[crossing], heads[crossing])
    return [flat.vertices[i] for i in ends.tolist()]


def _record_node(
    new_hierarchy: BalancedTreeHierarchy,
    node: TreeNode,
    ranking: CutRanking,
    flat: FlatWorkingGraph,
    arrays: Mapping[int, Sequence[float]],
    labelling: HC2LLabelling,
    stats: ConstructionStats,
) -> None:
    """Store a recomputed node: its ranked cut and one label level per vertex."""
    new_node = new_hierarchy.nodes[node.index]
    new_node.cut = list(ranking.ordered)
    for vertex in ranking.ordered:
        new_hierarchy.vertex_node[vertex] = new_node.index
        new_hierarchy.vertex_depth[vertex] = new_node.depth
        new_hierarchy.vertex_bits[vertex] = new_node.bits
    for vertex in flat.vertices:
        labelling.append_level(vertex, arrays[vertex])
    stats.num_nodes += 1
    if node.is_leaf:
        stats.num_leaves += 1


def _relabel_node(
    index: HC2LIndex,
    node: TreeNode,
    flat: FlatWorkingGraph,
    new_hierarchy: BalancedTreeHierarchy,
    labelling: HC2LLabelling,
    stats: ConstructionStats,
    parameters: HC2LParameters,
    backend: ShortestPathBackend,
) -> None:
    """Recompute ranking, labels and shortcuts for one node of the old tree."""
    old_hierarchy = index.hierarchy
    extension = _crossing_extension(flat, node, old_hierarchy)
    with stats.timer.measure("labelling"):
        ranking = rank_cut_vertices(flat, node.cut, backend=backend)
        # Tail truncation would give the extension entries (appended below)
        # different positions in different vertices' arrays, breaking the
        # min-plus prefix alignment, so it is disabled on affected nodes.
        arrays, cut_distances = node_distance_arrays(
            flat, ranking, parameters.tail_pruning and not extension, backend=backend
        )
        if extension:
            vertices = flat.vertices
            for hub, row in zip(extension, backend.sssp_many(flat, flat.dense_ids(extension))):
                values = [float(value) for value in row]
                cut_distances[hub] = {
                    v: d for v, d in zip(vertices, values) if d != INF
                }
                for j, vertex in enumerate(vertices):
                    arrays[vertex].append(values[j])
    _record_node(new_hierarchy, node, ranking, flat, arrays, labelling, stats)
    if node.is_leaf:
        return

    hubs = list(ranking.ordered) + extension if extension else ranking.ordered
    for child_index in (node.left, node.right):
        if child_index is None:
            continue
        child, shortcuts = derive_child(
            flat,
            hubs,
            old_hierarchy.subtree_vertices(child_index),
            cut_distances,
            backend=backend,
            timer=stats.timer,
        )
        stats.num_shortcuts += len(shortcuts)
        _relabel_node(
            index,
            old_hierarchy.nodes[child_index],
            child,
            new_hierarchy,
            labelling,
            stats,
            parameters,
            backend,
        )


def _copy_hierarchy_structure(hierarchy: BalancedTreeHierarchy) -> BalancedTreeHierarchy:
    """Clone the tree skeleton (nodes, bits, parent/child links) without labels."""
    clone = BalancedTreeHierarchy(hierarchy.num_vertices)
    clone.vertex_node = list(hierarchy.vertex_node)
    clone.vertex_depth = list(hierarchy.vertex_depth)
    clone.vertex_bits = list(hierarchy.vertex_bits)
    for node in hierarchy.nodes:
        clone.nodes.append(
            TreeNode(
                index=node.index,
                depth=node.depth,
                bits=node.bits,
                cut=list(node.cut),
                parent=node.parent,
                left=node.left,
                right=node.right,
                subtree_size=node.subtree_size,
                is_leaf=node.is_leaf,
            )
        )
    return clone


def _check_same_contraction(old: ContractedGraph, new: ContractedGraph) -> None:
    """The degree-one contraction is purely topological, so it must not change."""
    if old.core_to_original != new.core_to_original:
        raise ValueError("contraction changed between the old and new graph; rebuild required")


class DynamicHC2LIndex:
    """An HC2L index that supports edge-weight updates without full rebuilds.

    Weight updates are buffered and applied lazily: queries trigger a
    relabelling pass (hierarchy preserved) when pending updates exist.
    This mirrors the strategy sketched in Section 5.4: construction of the
    hierarchy is weight-independent, so only distance values are refreshed.

    The flush path never mutates label storage in place.  ``HC2LIndex``
    keeps its flat buffers as the single source of truth (assigning or
    appending to ``index.labelling`` raises), so the relabelling pass
    builds a fresh labelling and swaps the whole index - every derived
    structure (flat buffers, batch engine, nested view) is invalidated
    together instead of silently desyncing.

    Implements the batch-first :class:`repro.core.oracle.DistanceOracle`
    protocol by flushing and delegating to the underlying index.
    """

    def __init__(self, graph: Graph, parameters: Optional[HC2LParameters] = None, **overrides: object) -> None:
        self._graph = graph.copy()
        self._index = HC2LIndex.build(self._graph, parameters, **overrides)
        self._pending: Dict[Tuple[int, int], float] = {}
        self.relabel_count = 0
        #: guards ``_pending`` (updates may land while a flush is running)
        self._pending_lock = threading.Lock()
        #: serialises relabelling passes; two racing queries flush once
        self._flush_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def index(self) -> HC2LIndex:
        """The current (possibly stale) underlying index."""
        return self._index

    def update_edge_weight(self, u: int, v: int, weight: float) -> None:
        """Schedule a weight change for the existing edge ``(u, v)``."""
        if not self._graph.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) does not exist; topology changes require a rebuild")
        weight = float(weight)
        if not math.isfinite(weight) or weight <= 0:
            raise ValueError(f"edge weights must be finite and positive, got {weight}")
        with self._pending_lock:
            self._pending[(min(u, v), max(u, v))] = weight

    def pending_updates(self) -> int:
        """Number of buffered weight changes not yet applied."""
        with self._pending_lock:
            return len(self._pending)

    def flush(self) -> None:
        """Apply all pending weight changes by relabelling over the old hierarchy.

        Concurrent callers serialise on the flush lock, so racing queries
        trigger one relabel, not two.  Updates that land *while* the
        relabel runs are not lost: only the snapshot actually applied is
        cleared from the pending map (and an entry rescheduled with a
        different weight mid-flush survives to the next flush).
        """
        with self._flush_lock:
            with self._pending_lock:
                if not self._pending:
                    return
                applied = dict(self._pending)
            new_graph = self._graph.reweighted(applied)
            new_index = relabel(self._index, new_graph, changed_edges=applied)
            self._graph = new_graph
            self._index = new_index
            self.relabel_count += 1
            with self._pending_lock:
                for key, value in applied.items():
                    if self._pending.get(key) == value:
                        del self._pending[key]

    def distance(self, s: int, t: int) -> float:
        """Exact distance under the most recent weights (flushes lazily)."""
        self.flush()
        return self._index.distance(s, t)

    def distances(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Batched exact distances under the most recent weights."""
        self.flush()
        return self._index.distances(pairs)

    def one_to_many(self, s: int, targets: Sequence[int]) -> np.ndarray:
        """Distances from ``s`` to every target under the most recent weights."""
        self.flush()
        return self._index.one_to_many(s, targets)

    def many_to_many(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """Distance matrix under the most recent weights."""
        self.flush()
        return self._index.many_to_many(sources, targets)

    def distance_with_hub_count(self, s: int, t: int) -> Tuple[float, int]:
        """Distance plus hubs scanned under the most recent weights."""
        self.flush()
        return self._index.distance_with_hub_count(s, t)

    @property
    def construction_seconds(self) -> float:
        """Build time of the most recent (re)labelling pass."""
        return self._index.construction_seconds

    @property
    def supports_batch(self) -> bool:
        """Batch queries are vectorised by the underlying engine."""
        return True

    @property
    def index_size_bytes(self) -> int:
        """Size of the current labelling (protocol metadata)."""
        return self.label_size_bytes()

    def label_size_bytes(self) -> int:
        """Size of the current labelling."""
        return self._index.label_size_bytes()

