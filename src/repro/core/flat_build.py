"""The HC2L subtree recursion over CSR snapshots.

Every HC2L build runs this recursion.  It is expressed entirely over
:class:`~repro.core.flat.FlatWorkingGraph` CSR snapshots (numpy arrays),
so a subtree is self-contained and cheap to pickle: the serial build runs
it on the root in-process, and the process-parallel build ships subtrees
of the same recursion to worker processes.

* :func:`derive_child` - one shortcut-enhanced child snapshot, derived
  from the parent CSR by :meth:`~repro.core.flat.FlatWorkingGraph.induce`
  plus :meth:`~repro.core.flat.FlatWorkingGraph.overlay_shortcuts`; the
  construction and relabelling (:mod:`repro.core.dynamic`) both call it.
* :func:`node_step` - one node of the interleaved construction (cut,
  ranking, labelling arrays, shortcut-enhanced child snapshots).
* :func:`build_subtree` - the full recursion below one node, returning a
  picklable :class:`SubtreeResult`: the preorder node records needed to
  graft the subtree into the global hierarchy
  (:meth:`SubtreeResult.graft`) plus one
  :class:`~repro.core.flat.FlatLabelling` fragment holding the subtree's
  label levels in DFS (cut-concatenation) order.
* :func:`assemble_labelling` - permutes the fragments of a whole build
  into one labelling in vertex order.
* :func:`build_subtree_payload` - the process-pool entry point; rebuilds
  the snapshot from a plain-arrays payload dict.

The vertex orderings, edge orderings and tie-breaks are fixed, so a
subtree's labels do not depend on where it runs:
``tests/test_process_parallel.py`` pins serial and process builds to the
same labels, and ``tests/test_known_answers.py`` pins both to recorded
digests.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends import BackendSpec, ShortestPathBackend, resolve_backend
from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.core.labelling import node_distance_arrays
from repro.core.ranking import CutRanking, rank_cut_vertices
from repro.partition.cut import balanced_cut
from repro.partition.shortcuts import Shortcut, compute_shortcuts
from repro.utils.timer import Timer

if TYPE_CHECKING:
    from repro.core.construction import ConstructionStats
    from repro.hierarchy.tree import BalancedTreeHierarchy


@dataclass
class NodeStep:
    """Everything one construction node produces, before recursing.

    ``children`` lists ``(child_snapshot, side, bit, num_shortcuts)`` for
    the non-empty children (empty partitions are skipped, mirroring the
    sequential builder).
    """

    ranking: CutRanking
    arrays: Dict[int, List[float]]
    is_leaf: bool
    children: List[Tuple[FlatWorkingGraph, str, int, int]]
    #: wall-clock seconds the balanced cut took (0.0 for leaves); feeds
    #: the per-node cut-vs-label timing split in ConstructionStats
    seconds_cut: float = 0.0


def derive_child(
    flat: FlatWorkingGraph,
    cut: Sequence[int],
    part: Sequence[int],
    cut_distances: Mapping[int, Mapping[int, float]],
    *,
    backend: ShortestPathBackend,
    timer: Timer,
) -> Tuple[FlatWorkingGraph, List[Shortcut]]:
    """The shortcut-enhanced snapshot of child ``part`` (Definition 4.9).

    Returns the child snapshot and the shortcuts overlaid on it.  The
    child is induced once: the shortcut searches (Algorithm 3) run over
    the restriction, then the overlay reuses the same snapshot.
    ``cut_distances`` maps each vertex of ``cut`` to its distances over
    ``flat``, as :func:`~repro.core.labelling.node_distance_arrays`
    returns them.
    """
    with timer.measure("snapshot"):
        within = flat.induce(part)
    with timer.measure("shortcuts"):
        shortcuts = compute_shortcuts(
            flat, cut, part, cut_distances, backend=backend, within_flat=within
        )
    with timer.measure("snapshot"):
        child = within.overlay_shortcuts(shortcuts)
    return child, shortcuts


def node_step(
    flat: FlatWorkingGraph,
    depth: int,
    *,
    beta: float,
    leaf_size: int,
    tail_pruning: bool,
    max_depth: int,
    backend: ShortestPathBackend,
    timer: Timer,
    flow_method: str = "auto",
) -> NodeStep:
    """Run one node of the interleaved construction over a CSR snapshot.

    Cut the subgraph, rank the cut, compute the distance arrays, and
    derive the shortcut-enhanced child snapshots; the caller recurses.
    """
    n = len(flat.vertices)
    force_leaf = n <= leaf_size or depth >= max_depth
    cut_result = None
    seconds_cut = 0.0
    if not force_leaf:
        cut_started = time.perf_counter()
        with timer.measure("hierarchy"):
            cut_result = balanced_cut(
                flat, beta=beta, backend=backend, flow_method=flow_method
            )
        seconds_cut = time.perf_counter() - cut_started
        if not cut_result.part_a or not cut_result.part_b:
            force_leaf = True

    if force_leaf:
        with timer.measure("labelling"):
            ranking = rank_cut_vertices(flat, list(flat.vertices), backend=backend)
            arrays, _ = node_distance_arrays(flat, ranking, tail_pruning, backend=backend)
        return NodeStep(
            ranking=ranking,
            arrays=arrays,
            is_leaf=True,
            children=[],
            seconds_cut=seconds_cut,
        )

    assert cut_result is not None
    with timer.measure("labelling"):
        ranking = rank_cut_vertices(flat, cut_result.cut, backend=backend)
        arrays, cut_distances = node_distance_arrays(
            flat, ranking, tail_pruning, backend=backend
        )

    children: List[Tuple[FlatWorkingGraph, str, int, int]] = []
    for part, side, bit in ((cut_result.part_a, "left", 0), (cut_result.part_b, "right", 1)):
        if not part:
            continue
        child, shortcuts = derive_child(
            flat, ranking.ordered, part, cut_distances, backend=backend, timer=timer
        )
        children.append((child, side, bit, len(shortcuts)))
    return NodeStep(
        ranking=ranking,
        arrays=arrays,
        is_leaf=False,
        children=children,
        seconds_cut=seconds_cut,
    )


def fragment_from_levels(levels_per_vertex: Sequence[List[List[float]]]) -> FlatLabelling:
    """Pack per-vertex level lists into a :class:`FlatLabelling` fragment.

    Position ``p`` of the fragment holds the levels of
    ``levels_per_vertex[p]`` (the caller fixes the vertex order); empty
    level arrays survive as zero-length levels, exactly like
    ``HC2LLabelling.append_level`` records empty-cut depths.
    """
    n = len(levels_per_vertex)
    level_counts = np.fromiter(
        (len(levels) for levels in levels_per_vertex), dtype=np.int64, count=n
    )
    vertex_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(level_counts, out=vertex_indptr[1:])
    all_arrays = [array for levels in levels_per_vertex for array in levels]
    lengths = np.fromiter(map(len, all_arrays), dtype=np.int64, count=len(all_arrays))
    level_indptr = np.zeros(len(all_arrays) + 1, dtype=np.int64)
    np.cumsum(lengths, out=level_indptr[1:])
    total = int(level_indptr[-1])
    values = np.fromiter(chain.from_iterable(all_arrays), dtype=np.float64, count=total)
    return FlatLabelling(n, values, level_indptr, vertex_indptr)


@dataclass
class SubtreeResult:
    """A completed subtree, in picklable plain-array form.

    The node records are in preorder (node, then left subtree, then right
    subtree) - the exact order the sequential recursion would have called
    ``hierarchy.add_node`` - with parents referenced by *local* preorder
    index (-1 for the subtree root, whose parent lives in the coordinating
    process).  ``dfs_vertices`` concatenates the per-node cuts in the same
    preorder, which covers every subtree vertex exactly once, and the
    ``values`` / ``level_indptr`` / ``vertex_indptr`` triple is the
    :class:`FlatLabelling` fragment over that vertex order.
    """

    depths: List[int]
    bits: List[int]
    parents: List[int]
    sides: List[Optional[str]]
    leaf_flags: List[bool]
    sizes: List[int]
    cuts: List[List[int]]
    dfs_vertices: np.ndarray
    values: np.ndarray
    level_indptr: np.ndarray
    vertex_indptr: np.ndarray
    num_leaves: int
    num_empty_cuts: int
    num_shortcuts: int
    max_depth: int
    durations: Dict[str, float]
    node_timings: List[Tuple[int, int, float, float]]

    def fragment(self) -> FlatLabelling:
        """The label fragment over ``dfs_vertices`` order."""
        return FlatLabelling(
            len(self.dfs_vertices), self.values, self.level_indptr, self.vertex_indptr
        )

    def graft(
        self,
        hierarchy: "BalancedTreeHierarchy",
        parent: Optional[int],
        side: Optional[str],
        stats: "ConstructionStats",
    ) -> None:
        """Append the node records under hierarchy node ``parent`` (on
        ``side``; ``None`` for the root) and add the counters to ``stats``."""
        local_to_global: List[int] = []
        for i in range(len(self.depths)):
            parent_local = self.parents[i]
            if parent_local < 0:
                parent_idx, side_i = parent, side
            else:
                parent_idx, side_i = local_to_global[parent_local], self.sides[i]
            node = hierarchy.add_node(
                self.depths[i],
                self.bits[i],
                self.cuts[i],
                parent_idx,
                side_i,
                is_leaf=self.leaf_flags[i],
            )
            hierarchy.set_subtree_size(node.index, self.sizes[i])
            local_to_global.append(node.index)
        stats.num_nodes += len(self.depths)
        stats.num_leaves += self.num_leaves
        stats.num_empty_cuts += self.num_empty_cuts
        stats.num_shortcuts += self.num_shortcuts
        stats.max_depth = max(stats.max_depth, self.max_depth)
        stats.node_timings.extend(self.node_timings)
        for name, seconds in self.durations.items():
            stats.timer.durations[name] = stats.timer.get(name) + seconds


def assemble_labelling(
    fragments: Sequence[Tuple[np.ndarray, FlatLabelling]], num_vertices: int
) -> FlatLabelling:
    """One labelling in vertex order from ``(vertex ids, fragment)`` pairs.

    The fragments must cover every vertex exactly once; position ``p`` of
    a fragment holds the labels of its ``vertex ids[p]``.
    """
    order = (
        np.concatenate([vertices for vertices, _ in fragments])
        if fragments
        else np.empty(0, dtype=np.int64)
    )
    if not np.array_equal(np.sort(order), np.arange(num_vertices, dtype=np.int64)):
        raise AssertionError("label fragments do not cover every vertex exactly once")
    perm = np.empty(num_vertices, dtype=np.int64)
    perm[order] = np.arange(num_vertices, dtype=np.int64)
    return FlatLabelling.concat([fragment for _, fragment in fragments]).reorder(perm)


def build_subtree(
    flat: FlatWorkingGraph,
    depth: int,
    bits: int,
    *,
    beta: float,
    leaf_size: int,
    tail_pruning: bool,
    max_depth: int,
    backend: BackendSpec = None,
    flow_method: str = "auto",
) -> SubtreeResult:
    """Build the whole hierarchy subtree rooted at ``flat``.

    Recurses through :func:`node_step`, accumulating node records and
    per-vertex label levels locally; the caller (the serial build, a
    worker process or the pool build's inline fallback) grafts the
    returned :class:`SubtreeResult` into the global hierarchy.
    """
    search = resolve_backend(backend)
    timer = Timer()
    records: List[Tuple[int, int, int, Optional[str], bool, int, List[int]]] = []
    labels: Dict[int, List[List[float]]] = {v: [] for v in flat.vertices}
    counters = {
        "num_leaves": 0,
        "num_empty_cuts": 0,
        "num_shortcuts": 0,
        "max_depth": depth,
    }
    node_timings: List[Tuple[int, int, float, float]] = []

    def _build(
        flat: FlatWorkingGraph, depth: int, bits: int, parent: int, side: Optional[str]
    ) -> None:
        n = len(flat.vertices)
        if n == 0:
            return
        node_started = time.perf_counter()
        counters["max_depth"] = max(counters["max_depth"], depth)
        step = node_step(
            flat,
            depth,
            beta=beta,
            leaf_size=leaf_size,
            tail_pruning=tail_pruning,
            max_depth=max_depth,
            backend=search,
            timer=timer,
            flow_method=flow_method,
        )
        local = len(records)
        records.append((depth, bits, parent, side, step.is_leaf, n, step.ranking.ordered))
        if step.is_leaf:
            counters["num_leaves"] += 1
        elif not step.ranking.ordered:
            counters["num_empty_cuts"] += 1
        for v in flat.vertices:
            labels[v].append(step.arrays[v])
        counters["num_shortcuts"] += sum(child[3] for child in step.children)
        node_timings.append(
            (depth, n, time.perf_counter() - node_started, step.seconds_cut)
        )
        for child_flat, child_side, child_bit, _ in step.children:
            _build(child_flat, depth + 1, (bits << 1) | child_bit, local, child_side)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        _build(flat, depth, bits, -1, None)
    finally:
        sys.setrecursionlimit(limit)

    dfs = [v for record in records for v in record[6]]
    if len(dfs) != len(flat.vertices):
        raise AssertionError(
            f"subtree cuts cover {len(dfs)} of {len(flat.vertices)} vertices"
        )
    fragment = fragment_from_levels([labels[v] for v in dfs])
    return SubtreeResult(
        depths=[r[0] for r in records],
        bits=[r[1] for r in records],
        parents=[r[2] for r in records],
        sides=[r[3] for r in records],
        leaf_flags=[r[4] for r in records],
        sizes=[r[5] for r in records],
        cuts=[r[6] for r in records],
        dfs_vertices=np.asarray(dfs, dtype=np.int64),
        values=fragment.values,
        level_indptr=fragment.level_indptr,
        vertex_indptr=fragment.vertex_indptr,
        num_leaves=counters["num_leaves"],
        num_empty_cuts=counters["num_empty_cuts"],
        num_shortcuts=counters["num_shortcuts"],
        max_depth=counters["max_depth"],
        durations=dict(timer.durations),
        node_timings=node_timings,
    )


def build_subtree_payload(payload: Dict[str, object]) -> SubtreeResult:
    """Process-pool entry point: rebuild the snapshot and run the subtree.

    ``payload`` carries the CSR triple as numpy arrays (cheap to pickle),
    the vertex-id map, the node position (``depth``, ``bits``) and the
    builder parameters.  The backend travels by *name*; a custom backend
    instance cannot cross a process boundary, so the coordinator only
    ships named backends to workers (see :mod:`repro.core.parallel`).
    """
    vertices = np.asarray(payload["vertices"], dtype=np.int64)
    flat = FlatWorkingGraph.from_csr_arrays(
        vertices.tolist(), payload["indptr"], payload["indices"], payload["weights"]
    )
    return build_subtree(
        flat,
        int(payload["depth"]),
        payload["bits"],  # python int; may exceed 64 bits at deep levels
        beta=float(payload["beta"]),
        leaf_size=int(payload["leaf_size"]),
        tail_pruning=bool(payload["tail_pruning"]),
        max_depth=int(payload["max_depth"]),
        backend=payload["backend"],
        flow_method=str(payload["flow_method"]),
    )
