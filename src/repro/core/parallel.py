"""Process-parallel HC2L construction (HC2L_p, Section 4.4).

The paper parallelises the recursion: the two sides of every balanced cut
are processed concurrently.  :class:`~repro.core.construction.HC2LBuilder`
with ``num_workers >= 2`` does this on a
:class:`concurrent.futures.ProcessPoolExecutor` (:func:`build_in_pool`):
independent hierarchy subtrees are shipped to the pool as self-contained
work units.  The induced CSR arrays travel as numpy buffers (cheap to
pickle, no ``Graph`` objects cross the boundary), each worker runs the
same :func:`~repro.core.flat_build.build_subtree` recursion a serial build
runs, and the coordinator streams the returned label fragments into one
flat :class:`~repro.core.flat.FlatLabelling` in hierarchy DFS order.

Processes sidestep the GIL, at the price of pickling each unit in and its
label block out - below the size crossover (small graphs,
``num_vertices <= parallel_threshold``) the builder simply builds
serially.  The top of the hierarchy is expanded inline (child snapshots
are derived from the parent CSR plus the shortcut overlay), and peak
memory is bounded by the frontier of in-flight units rather than the
whole nested labelling.

Labels are bit-identical to the serial build for every worker count;
``tests/test_process_parallel.py`` pins the backend x workers matrix and
``tests/test_differential_fuzz.py`` covers graph families.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.core.flat_build import (
    SubtreeResult,
    build_subtree,
    build_subtree_payload,
    fragment_from_levels,
    node_step,
)
from repro.hierarchy.tree import BalancedTreeHierarchy

if TYPE_CHECKING:
    from repro.core.construction import ConstructionStats, HC2LBuilder

#: ``(vertex ids, labels)`` of one finished label fragment
Fragment = Tuple[np.ndarray, FlatLabelling]


def build_in_pool(
    builder: "HC2LBuilder",
    root: FlatWorkingGraph,
    hierarchy: BalancedTreeHierarchy,
    stats: "ConstructionStats",
) -> List[Fragment]:
    """Build the hierarchy below ``root`` on a pool of ``builder.num_workers``.

    Fills ``hierarchy`` and ``stats`` and returns the label fragments,
    which together cover every vertex of ``root`` exactly once.
    """
    n_total = len(root.vertices)
    # subtrees at most this large become work units; the cap keeps at
    # least ~4 units per worker in flight for load balance while the
    # floor stops units too small to amortise their pickling
    ship_max = max(builder.parallel_threshold, -(-n_total // (4 * builder.num_workers)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        with ProcessPoolExecutor(max_workers=builder.num_workers) as executor:
            expansion = _PoolExpansion(builder, stats, executor, ship_max)
            expansion.expand(root, 0, 0, -1, None)
            return expansion.replay(hierarchy)
    finally:
        sys.setrecursionlimit(limit)


class _PoolExpansion:
    """The coordinator's state while it expands the top of the hierarchy.

    Runs single-threaded in the coordinating process, so statistics need
    no locking.
    """

    def __init__(
        self,
        builder: "HC2LBuilder",
        stats: "ConstructionStats",
        executor: ProcessPoolExecutor,
        ship_max: int,
    ) -> None:
        self.builder = builder
        self.stats = stats
        self.executor = executor
        self.ship_max = ship_max
        #: vertex -> label levels of already-processed ancestor nodes, for
        #: vertices whose own cut level has not been reached yet.  Entries
        #: are popped the moment a vertex enters a fragment, so this holds
        #: only the frontier of in-flight subtrees, never the whole graph.
        self.prefix: Dict[int, List[List[float]]] = {}
        #: preorder construction events ("node" for inline nodes, "unit"
        #: for shipped subtrees); replayed in order during assembly so
        #: hierarchy node indices match the serial build exactly
        self.events: List[Tuple] = []
        #: label fragments; unit slots are reserved at submission and
        #: filled when the result is merged
        self.fragments: List[Optional[Fragment]] = []

    def expand(
        self,
        flat: FlatWorkingGraph,
        depth: int,
        bits: int,
        parent_event: int,
        side: Optional[str],
    ) -> None:
        """Expand one node inline, or turn its subtree into a work unit.

        Nodes larger than ``ship_max`` are processed here (cut + ranking +
        labelling + child snapshots via the shortcut overlay); anything at
        or below it becomes a work unit.
        """
        n = len(flat.vertices)
        if n == 0:
            return
        if n <= self.ship_max:
            self._spawn_unit(flat, depth, bits, parent_event, side)
            return
        stats = self.stats
        node_started = time.perf_counter()
        stats.max_depth = max(stats.max_depth, depth)
        step = node_step(flat, depth, timer=stats.timer, **self.builder.recursion_options())
        event_index = len(self.events)
        ordered = step.ranking.ordered
        stats.num_nodes += 1
        if step.is_leaf:
            stats.num_leaves += 1
        elif not ordered:
            stats.num_empty_cuts += 1
        # vertices assigned to this node's cut have their full label now:
        # the inherited ancestor levels plus this node's array.  Stream
        # them out as a finished fragment immediately.
        if ordered:
            self.fragments.append(
                (
                    np.asarray(ordered, dtype=np.int64),
                    fragment_from_levels(
                        [self.prefix.pop(v, []) + [step.arrays[v]] for v in ordered]
                    ),
                )
            )
        self.events.append(("node", depth, bits, ordered, parent_event, side, step.is_leaf, n))
        if not step.is_leaf:
            cut_set = set(ordered)
            for v in flat.vertices:
                if v not in cut_set:
                    self.prefix.setdefault(v, []).append(step.arrays[v])
            stats.num_shortcuts += sum(child[3] for child in step.children)
        stats.node_timings.append(
            (depth, n, time.perf_counter() - node_started, step.seconds_cut)
        )
        for child_flat, child_side, child_bit, _ in step.children:
            self.expand(child_flat, depth + 1, (bits << 1) | child_bit, event_index, child_side)

    def _spawn_unit(
        self,
        flat: FlatWorkingGraph,
        depth: int,
        bits: int,
        parent_event: int,
        side: Optional[str],
    ) -> None:
        """Turn one subtree into a work unit (pool task or inline call)."""
        builder = self.builder
        slot = len(self.fragments)
        self.fragments.append(None)
        unit_vertices = np.asarray(flat.vertices, dtype=np.int64)
        prefix_frag = fragment_from_levels([self.prefix.pop(v, []) for v in flat.vertices])
        options = builder.recursion_options()
        if len(flat.vertices) >= builder.parallel_threshold:
            indptr, indices, weights = flat.csr_arrays()
            payload = {
                "vertices": unit_vertices,
                "indptr": indptr,
                "indices": indices,
                "weights": weights,
                "depth": depth,
                "bits": bits,
                **options,
                # ship by name: instances don't cross process boundaries
                "backend": builder.backend.name,
            }
            handle = self.executor.submit(build_subtree_payload, payload)
            self.stats.num_tasks += 1
        else:
            # too small to amortise pickling; same recursion, run inline
            # with the exact backend instance
            handle = build_subtree(flat, depth, bits, **options)
        self.events.append(("unit", slot, handle, prefix_frag, unit_vertices, parent_event, side))

    def replay(self, hierarchy: BalancedTreeHierarchy) -> List[Fragment]:
        """Replay the events in preorder and return the finished fragments.

        Inline nodes go straight into the hierarchy; unit results are
        awaited and grafted.
        """
        if self.prefix:
            raise AssertionError(f"{len(self.prefix)} vertices never reached a label fragment")
        event_to_hier: Dict[int, int] = {}
        for event_index, event in enumerate(self.events):
            if event[0] == "node":
                _, depth, bits, cut, parent_event, side, is_leaf, n = event
                node = hierarchy.add_node(
                    depth, bits, cut, event_to_hier.get(parent_event), side, is_leaf=is_leaf
                )
                hierarchy.set_subtree_size(node.index, n)
                event_to_hier[event_index] = node.index
            else:
                _, slot, handle, prefix_frag, unit_vertices, parent_event, side = event
                result: SubtreeResult = (
                    handle.result() if isinstance(handle, Future) else handle
                )
                result.graft(hierarchy, event_to_hier.get(parent_event), side, self.stats)
                # the worker's fragment is in subtree-DFS order; align the
                # inherited ancestor prefix to it, then concatenate levels
                # per vertex (prefix first)
                order = np.searchsorted(unit_vertices, result.dfs_vertices)
                self.fragments[slot] = (
                    result.dfs_vertices,
                    prefix_frag.reorder(order).merge_levels(result.fragment()),
                )
        return self.fragments
