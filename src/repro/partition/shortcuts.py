"""Algorithm 3 - AddShortcuts (distance preservation).

After a balanced cut ``(P_A, V_cut, P_B)``, the induced subgraphs on the
two partitions are not necessarily distance preserving: a shortest path
between two vertices of ``P_A`` may travel through the cut.  Lemma 4.8
shows that such paths always enter and leave the partition through *border
vertices* (vertices of the partition adjacent to the cut), so it suffices
to add shortcut edges between border vertices whose true distance is
shorter than their within-partition distance.  Lemma 4.11 identifies
redundant shortcuts (those realisable through a third border vertex),
which this module eliminates to keep the working graphs sparse.

:func:`compute_shortcuts` runs on the parent's CSR snapshot
(:class:`~repro.core.flat.FlatWorkingGraph`); the caller overlays the
result on the induced child snapshot
(:meth:`~repro.core.flat.FlatWorkingGraph.overlay_shortcuts`).  The
dict-of-dicts helpers at the bottom (:func:`apply_shortcuts`,
:func:`child_adjacency`, :func:`is_distance_preserving`) are the
references the tests check the snapshot derivation against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.flat import FlatWorkingGraph
from repro.partition.working_graph import (
    WorkingAdjacency,
    dijkstra_adjacency,
    restrict_adjacency,
)

INF = float("inf")

#: Relative tolerance used when comparing alternative path lengths; two
#: floating point sums of the same edge weights can differ by a few ulps
#: depending on the order of addition.
_REL_EPS = 1e-9


@dataclass(frozen=True)
class Shortcut:
    """A shortcut edge ``(u, v)`` carrying the true graph distance."""

    u: int
    v: int
    weight: float


def border_vertices(
    flat: FlatWorkingGraph, partition: Iterable[int], cut: Iterable[int]
) -> List[int]:
    """Vertices of ``partition`` adjacent to at least one cut vertex (Definition 4.7).

    One edge-mask scan over the snapshot; the result is sorted (dense ids
    ascend with original ids), which fixes the shortcut enumeration order.
    """
    _, indices, _ = flat.csr_arrays()
    n = len(flat.vertices)
    part_mask = np.zeros(n, dtype=bool)
    part_mask[flat.dense_ids(partition)] = True
    cut_mask = np.zeros(n, dtype=bool)
    cut_mask[flat.dense_ids(cut)] = True
    tails = flat.tails()
    border_dense = np.unique(tails[part_mask[tails] & cut_mask[indices]])
    return [flat.vertices[i] for i in border_dense.tolist()]


def compute_shortcuts(
    flat: FlatWorkingGraph,
    cut: Sequence[int],
    partition: Sequence[int],
    cut_distances: Mapping[int, Mapping[int, float]],
    backend: object = None,
    within_flat: "FlatWorkingGraph | None" = None,
) -> List[Shortcut]:
    """Compute the non-redundant shortcuts for one partition (Algorithm 3).

    Parameters
    ----------
    flat:
        CSR snapshot of the *parent* subgraph (partition + cut + the other
        partition), which is distance preserving by induction.
    cut:
        The cut vertices separating the partitions.
    partition:
        The partition (list of vertices) receiving the shortcuts.
    cut_distances:
        For each cut vertex, its single-source distances over the parent
        subgraph.  The labelling step computes these anyway (Algorithm 5),
        so the caller passes them in rather than recomputing.
    backend:
        The :class:`~repro.core.backends.ShortestPathBackend` running the
        per-border searches (name, instance, or ``None`` for the default).
    within_flat:
        Optional pre-induced snapshot of ``partition`` (must equal
        ``flat.induce(partition)``).  The construction passes it in and
        reuses the same snapshot for the child overlay, so each child is
        induced exactly once.

    Returns
    -------
    list of Shortcut
        Shortcuts to add to the child working graph for ``partition``.
    """
    borders = border_vertices(flat, partition, cut)
    if len(borders) < 2:
        return []

    # Lines 3-6: within-partition distances between border vertices: the
    # backend searches from every border over the induced snapshot (one
    # batched scipy call for all borders under the csr backend).
    from repro.core.backends import resolve_backend

    if within_flat is None:
        within_flat = flat.induce(partition)
    border_dense = within_flat.dense_ids(borders)
    rows = resolve_backend(backend).sssp_many(within_flat, border_dense)
    within: Dict[int, Sequence[float]] = dict(zip(borders, rows))
    dense_of = dict(zip(borders, border_dense))

    # Lines 7-8: true distances, allowing travel through the cut.
    true_distance: Dict[Tuple[int, int], float] = {}
    for i, b1 in enumerate(borders):
        for b2 in borders[i + 1 :]:
            d_in_partition = within[b1][dense_of[b2]]
            d_via_cut = INF
            for c in cut:
                dist_c = cut_distances[c]
                candidate = dist_c.get(b1, INF) + dist_c.get(b2, INF)
                if candidate < d_via_cut:
                    d_via_cut = candidate
            true_distance[(b1, b2)] = min(d_in_partition, d_via_cut)

    def lookup(a: int, b: int) -> float:
        if a == b:
            return 0.0
        return true_distance[(a, b)] if a < b else true_distance[(b, a)]

    # Lines 9-16: keep only non-redundant shortcuts (Lemma 4.11).
    shortcuts: List[Shortcut] = []
    for (b1, b2), d_true in true_distance.items():
        if d_true == INF:
            continue
        d_in_partition = within[b1][dense_of[b2]]
        if d_true >= d_in_partition:
            continue  # condition (1): the partition already realises it
        tolerance = _REL_EPS * max(1.0, d_true)
        redundant = False
        for b3 in borders:
            if b3 == b1 or b3 == b2:
                continue
            if lookup(b1, b3) + lookup(b3, b2) <= d_true + tolerance:
                redundant = True
                break
        if not redundant:
            shortcuts.append(Shortcut(b1, b2, d_true))
    return shortcuts


def apply_shortcuts(child: WorkingAdjacency, shortcuts: Iterable[Shortcut]) -> int:
    """Add ``shortcuts`` to a child working adjacency (keeping minima).

    The reference for
    :meth:`~repro.core.flat.FlatWorkingGraph.overlay_shortcuts`.  Returns
    the number of shortcut edges that changed the child graph (new edge
    or improved weight).
    """
    added = 0
    for shortcut in shortcuts:
        u, v, weight = shortcut.u, shortcut.v, shortcut.weight
        if u not in child or v not in child:
            continue
        current = child[u].get(v)
        if current is None or weight < current:
            child[u][v] = weight
            child[v][u] = weight
            added += 1
    return added


def is_distance_preserving(
    parent: WorkingAdjacency,
    child: WorkingAdjacency,
    sample_vertices: Sequence[int] | None = None,
    tolerance: float = 1e-6,
) -> bool:
    """Check Definition 4.5 on a child subgraph (test helper).

    For every (sampled) vertex, distances inside the child must match the
    distances in the parent working graph restricted to child vertices.
    """
    vertices = sorted(child)
    sources = vertices if sample_vertices is None else [v for v in sample_vertices if v in child]
    for source in sources:
        in_child = dijkstra_adjacency(child, source)
        in_parent = dijkstra_adjacency(parent, source)
        for v in vertices:
            dc = in_child.get(v, INF)
            dp = in_parent.get(v, INF)
            if dp == INF and dc == INF:
                continue
            if abs(dc - dp) > tolerance * max(1.0, abs(dp)):
                return False
    return True


def child_adjacency(
    adjacency: WorkingAdjacency,
    partition: Sequence[int],
    shortcuts: Iterable[Shortcut],
) -> WorkingAdjacency:
    """Build the shortcut-enhanced child working graph ``G<P>`` (Definition 4.9).

    The reference for ``flat.induce(partition).overlay_shortcuts(shortcuts)``,
    the derivation construction and relabelling run.
    """
    child = restrict_adjacency(adjacency, partition)
    apply_shortcuts(child, shortcuts)
    return child
