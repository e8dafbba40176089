"""HC2L construction: one pipeline for serial and parallel builds.

:class:`HC2LBuilder` interleaves the construction of the balanced tree
hierarchy (Section 4.1) with the tail-pruned labelling (Section 4.2): for
each tree node it

1. computes a balanced cut of the current working subgraph (Algorithms 1
   and 2),
2. ranks the cut vertices (Equation 6) and runs the pruneability-tracking
   Dijkstra searches that yield both the distance arrays of the labelling
   and the cut-to-border distances,
3. derives the distance-preserving shortcuts for each side (Algorithm 3),
   and
4. recurses on the two shortcut-enhanced child subgraphs.

Interleaving avoids re-running the per-cut-vertex searches, which is also
how the reference implementation described in the paper organises the work
(the labelling searches "account for the majority" of construction time).

The recursion is :func:`repro.core.flat_build.build_subtree`, over CSR
snapshots.  The root snapshot wraps the core graph's own CSR arrays
(:meth:`~repro.core.flat.FlatWorkingGraph.from_graph`); a serial build
runs the recursion on that root in-process, a parallel build (``num_workers >= 2``
on graphs above ``parallel_threshold`` vertices; HC2L_p, Section 4.4)
ships subtrees of it to a process pool (:mod:`repro.core.parallel`).
Either way the subtree results are grafted into the hierarchy by
:meth:`~repro.core.flat_build.SubtreeResult.graft` and their label
fragments permuted into one :class:`~repro.core.flat.FlatLabelling`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.backends import BackendSpec, ShortestPathBackend, resolve_backend
from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.core.flat_build import assemble_labelling, build_subtree
from repro.core.parallel import build_in_pool
from repro.flow.vertex_cut import check_flow_method
from repro.graph.graph import Graph
from repro.hierarchy.tree import BalancedTreeHierarchy
from repro.utils.timer import Timer
from repro.utils.validation import check_balance_parameter


@dataclass
class ConstructionStats:
    """Counters and timings collected while building an HC2L index."""

    timer: Timer = field(default_factory=Timer)
    num_nodes: int = 0
    num_leaves: int = 0
    num_shortcuts: int = 0
    num_empty_cuts: int = 0
    max_depth: int = 0
    #: work units handed to a worker pool (0 for serial builds)
    num_tasks: int = 0
    #: per-node ``(depth, num_vertices, seconds, seconds_cut)`` records,
    #: where seconds covers the node's own cut + ranking + labelling +
    #: child-derivation work (recursion excluded) and seconds_cut is the
    #: balanced-cut share of it (0.0 for leaves, which compute no cut);
    #: feeds the bench's construction-skew view and its cut-vs-label split
    node_timings: List[Tuple[int, int, float, float]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, float]:
        """Flatten to a plain dict for reporting."""
        result: Dict[str, float] = {
            "num_nodes": float(self.num_nodes),
            "num_leaves": float(self.num_leaves),
            "num_shortcuts": float(self.num_shortcuts),
            "num_empty_cuts": float(self.num_empty_cuts),
            "max_depth": float(self.max_depth),
            "num_tasks": float(self.num_tasks),
            "total_seconds": self.timer.total(),
        }
        for name, seconds in self.timer.durations.items():
            result[f"seconds_{name}"] = seconds
        return result


class HC2LBuilder:
    """Builds the balanced tree hierarchy and HC2L labelling of a graph.

    Parameters
    ----------
    beta:
        Balance parameter of Definition 4.1 (the paper uses 0.2).
    leaf_size:
        Subgraphs with at most this many vertices become leaf nodes whose
        "cut" is the whole subgraph.
    tail_pruning:
        Disable to build the naive (upper-bound) labelling of
        Section 4.2.1; used by the ablation benchmark.
    max_depth:
        Hard recursion limit; deeper subgraphs become leaves.  Mostly a
        safety net for adversarial inputs.
    backend:
        The :class:`~repro.core.backends.ShortestPathBackend` running the
        construction searches (``"auto"``, ``"heap"``, ``"csr"``, or an
        instance); ``"auto"`` picks the CSR backend when scipy is
        available and the heap otherwise.  Labels are bit-identical across
        backends.
    flow_method:
        Max-flow solver for the balanced cuts - a name from
        :data:`repro.flow.vertex_cut.FLOW_METHODS`, or ``"auto"`` to use
        the backend's default.  Cuts (and therefore labels) are
        bit-identical across methods.
    num_workers:
        1 builds serially; >= 2 ships subtrees to a process pool of this
        size (see :mod:`repro.core.parallel`).  Labels are bit-identical
        across worker counts.
    parallel_threshold:
        Graphs of at most this many vertices build serially whatever
        ``num_workers`` says, and in a pool build smaller subtrees run
        inline rather than being pickled to a worker.
    """

    def __init__(
        self,
        beta: float = 0.2,
        leaf_size: int = 12,
        tail_pruning: bool = True,
        max_depth: int = 60,
        backend: BackendSpec = "auto",
        flow_method: str = "auto",
        num_workers: int = 1,
        parallel_threshold: int = 64,
    ) -> None:
        self.beta = check_balance_parameter(beta)
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be at least 1, got {leaf_size}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.leaf_size = leaf_size
        self.tail_pruning = tail_pruning
        self.max_depth = max_depth
        self.backend: ShortestPathBackend = resolve_backend(backend)
        self.flow_method = check_flow_method(flow_method)
        self.num_workers = num_workers
        self.parallel_threshold = parallel_threshold

    def recursion_options(self) -> Dict[str, object]:
        """The keyword arguments :func:`~repro.core.flat_build.build_subtree`
        and :func:`~repro.core.flat_build.node_step` take from the builder."""
        return {
            "beta": self.beta,
            "leaf_size": self.leaf_size,
            "tail_pruning": self.tail_pruning,
            "max_depth": self.max_depth,
            "backend": self.backend,
            "flow_method": self.flow_method,
        }

    def build(
        self, graph: Graph
    ) -> Tuple[BalancedTreeHierarchy, FlatLabelling, ConstructionStats]:
        """Build hierarchy + labelling for ``graph`` (over all its vertices)."""
        stats = ConstructionStats()
        n = graph.num_vertices
        hierarchy = BalancedTreeHierarchy(n)
        if n == 0:
            return hierarchy, FlatLabelling.concat([]), stats
        with stats.timer.measure("snapshot"):
            root = FlatWorkingGraph.from_graph(graph)
        if self.num_workers >= 2 and n > self.parallel_threshold:
            fragments = build_in_pool(self, root, hierarchy, stats)
        else:
            result = build_subtree(root, 0, 0, **self.recursion_options())
            result.graft(hierarchy, None, None, stats)
            fragments = [(result.dfs_vertices, result.fragment())]
        with stats.timer.measure("flatten"):
            labelling = assemble_labelling(fragments, n)
        return hierarchy, labelling, stats
