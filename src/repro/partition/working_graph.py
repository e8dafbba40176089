"""Dict-of-dicts working subgraphs: the reference the tests compare against.

The recursive bisection repeatedly (a) restricts the graph to one side of a
cut and (b) adds shortcut edges to keep it distance preserving.  Both the
construction and relabelling do this on one representation, the immutable
CSR snapshot :class:`~repro.core.flat.FlatWorkingGraph`: the root is the
core graph's CSR, children are derived with
:meth:`~repro.core.flat.FlatWorkingGraph.induce` and
:meth:`~repro.core.flat.FlatWorkingGraph.overlay_shortcuts`, and every
search runs through the pluggable
:class:`~repro.core.backends.ShortestPathBackend` seam.

This module keeps the plain ``dict[vertex, dict[neighbour, weight]]``
form (``WorkingAdjacency``, from :meth:`repro.graph.graph.Graph.adjacency_dict`)
with a restriction and a Dijkstra written directly against it.  No
construction path uses them; tests derive subgraphs and distances the
simple way and check the snapshot paths against them.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.flat import WorkingAdjacency

INF = float("inf")


def restrict_adjacency(adjacency: WorkingAdjacency, vertices: Iterable[int]) -> WorkingAdjacency:
    """Induce a working adjacency on ``vertices`` (new dicts, originals untouched).

    The reference for :meth:`~repro.core.flat.FlatWorkingGraph.induce`.
    """
    member = set(vertices)
    return {
        v: {w: weight for w, weight in adjacency[v].items() if w in member}
        for v in member
        if v in adjacency
    }


def dijkstra_adjacency(
    adjacency: WorkingAdjacency,
    source: int,
    allowed: Optional[Iterable[int]] = None,
) -> Dict[int, float]:
    """Dijkstra on a working adjacency; returns a dict of reached distances.

    The reference search of the tests.  Vertices not present in the result
    are unreachable.  ``allowed`` restricts the search to a vertex subset
    (the source must belong to it).
    """
    allowed_set = None if allowed is None else set(allowed)
    dist: Dict[int, float] = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, INF):
            continue
        for w, weight in adjacency[v].items():
            if allowed_set is not None and w not in allowed_set:
                continue
            nd = d + weight
            if nd < dist.get(w, INF):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist
