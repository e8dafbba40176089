"""repro - Hierarchical Cut 2-Hop Labelling (HC2L) for road-network distance queries.

A from-scratch Python reproduction of

    Farhan, Koehler, Ohms, Wang.
    "Hierarchical Cut Labelling - Scaling Up Distance Queries on Road Networks."
    SIGMOD 2023 (arXiv:2311.11063).

The package provides

* :class:`repro.HC2LIndex` - the paper's index (build + query),
* a full set of baselines (Dijkstra, bidirectional Dijkstra, CH, PLL,
  hub labelling, pruned highway labelling, H2H) under :mod:`repro.baselines`,
* synthetic road-network generators and DIMACS I/O under :mod:`repro.graph`,
* and the experiment harness regenerating every table and figure of the
  paper's evaluation under :mod:`repro.experiments`.

Quickstart
----------
>>> from repro import HC2LIndex, synthetic_road_network, RoadNetworkSpec
>>> network = synthetic_road_network(RoadNetworkSpec("demo", num_vertices=300, seed=1))
>>> index = HC2LIndex.build(network.distance_graph)
>>> index.distance(0, 42)  # doctest: +SKIP
1234.5
"""

from repro.core.index import HC2LIndex, HC2LParameters
from repro.core.construction import HC2LBuilder
from repro.core.engine import QueryEngine
from repro.core.flat import FlatLabelling
from repro.core.oracle import BatchMixin, DistanceOracle
from repro.graph.graph import Graph
from repro.graph.generators import (
    RoadNetwork,
    RoadNetworkSpec,
    generate_dataset,
    paper_dataset_specs,
    synthetic_road_network,
)
from repro.graph.io import read_dimacs, write_dimacs

__version__ = "1.0.0"

__all__ = [
    "HC2LIndex",
    "HC2LParameters",
    "HC2LBuilder",
    "QueryEngine",
    "FlatLabelling",
    "DistanceOracle",
    "BatchMixin",
    "Graph",
    "RoadNetwork",
    "RoadNetworkSpec",
    "synthetic_road_network",
    "generate_dataset",
    "paper_dataset_specs",
    "read_dimacs",
    "write_dimacs",
    "__version__",
]
