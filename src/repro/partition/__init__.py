"""Balanced partitioning, balanced vertex cuts and distance preservation.

This package implements Section 4.1 of the paper.  Every function runs on
the CSR snapshot of a working subgraph
(:class:`~repro.core.flat.FlatWorkingGraph`) through the shortest-path
backend seam:

* :mod:`repro.partition.partition` - Algorithm 1 (BalancedPartition),
* :mod:`repro.partition.cut` - Algorithm 2 (BalancedCut), and
* :mod:`repro.partition.shortcuts` - Algorithm 3 (AddShortcuts) together
  with the redundancy elimination of Lemma 4.11.

:mod:`repro.partition.working_graph` keeps the dict-of-dicts form with a
restriction and a Dijkstra written against it: the references the tests
check the snapshot paths against.
"""

from repro.partition.working_graph import (
    WorkingAdjacency,
    dijkstra_adjacency,
    restrict_adjacency,
)
from repro.partition.partition import BalancedPartitionResult, balanced_partition
from repro.partition.cut import BalancedCutResult, balanced_cut
from repro.partition.shortcuts import Shortcut, compute_shortcuts, is_distance_preserving

__all__ = [
    "WorkingAdjacency",
    "restrict_adjacency",
    "dijkstra_adjacency",
    "balanced_partition",
    "BalancedPartitionResult",
    "balanced_cut",
    "BalancedCutResult",
    "compute_shortcuts",
    "Shortcut",
    "is_distance_preserving",
]
