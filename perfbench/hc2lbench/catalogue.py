"""Every workload and metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` at the repository root lists the same names, units,
directions and bounds; the self-test keeps the two in step.  What each
per-layer metric should move is recorded once, in perfbench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

WORKLOADS: Dict[str, str] = {
    "build-dimacs": (
        "Preprocessing cost on integer-weight DIMACS input, where weight ties make "
        "labelling and shortcuts dominate; construction does nearly all the work."
    ),
    "query-mix": (
        "Read-only engine work: uniform points, 1000-pair list batches (coercion) and "
        "neighbourhood many_to_many matrices; the engine does nearly all the work."
    ),
    "update-local": (
        "Writes beside reads: clustered reweights run scoped relabels, then the engine "
        "answers cold after every swap."
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("build_s", "s", "lower", 0.25),
    Metric("label_bytes", "B", "lower", 0.1),
    Metric("point_p50_us", "us", "lower", 0.25),
    Metric("batch_p50_ms", "ms", "lower", 0.25),
    Metric("pairs_per_s", "pairs/s", "higher", 0.25),
    Metric("matrix_p50_ms", "ms", "lower", 0.25),
    Metric("update_p50_s", "s", "lower", 0.25),
    Metric("update_total_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
]

#: tail latencies of the untraced pass; unbounded, because run-to-run they
#: moved by more than any bound allows (see perfbench/README.md)
TAILS: List[Metric] = [
    Metric("point_p99_us", "us", "lower"),
    Metric("batch_p99_ms", "ms", "lower"),
    Metric("matrix_p99_ms", "ms", "lower"),
]

PER_LAYER: List[Metric] = TAILS + [
    # graph
    Metric("graph.read_dimacs_s", "s", "lower"),
    Metric("graph.contract_s", "s", "lower"),
    Metric("graph.reweighted_s", "s", "lower"),
    # construction
    Metric("construction.build_s", "s", "lower"),
    Metric("construction.snapshot_s", "s", "lower"),
    Metric("construction.hierarchy_s", "s", "lower"),
    Metric("construction.labelling_s", "s", "lower"),
    Metric("construction.shortcuts_s", "s", "lower"),
    Metric("construction.unattributed_s", "s", "lower"),
    Metric("construction.num_shortcuts", "count", "lower"),
    Metric("hierarchy.num_nodes", "count", "lower"),
    Metric("hierarchy.tree_height", "count", "lower"),
    Metric("hierarchy.max_cut_size", "count", "lower"),
    # flat / persistence
    Metric("flat.from_labelling_s", "s", "lower"),
    Metric("persistence.save_s", "s", "lower"),
    Metric("persistence.load_s", "s", "lower"),
    Metric("persistence.file_bytes", "B", "lower"),
    Metric("flat.label_entries", "count", "lower"),
    # engine
    Metric("oracle.as_pair_array_ns", "ns/pair", "lower"),
    Metric("engine.resolve_ns", "ns/pair", "lower"),
    Metric("engine.lca_ns", "ns/pair", "lower"),
    Metric("engine.minplus_ns", "ns/pair", "lower"),
    Metric("engine.point_us", "us", "lower"),
    Metric("engine.hubs_per_pair", "count", "lower"),
    Metric("engine.same_tree_share", "ratio", "higher"),
    # dynamic
    Metric("dynamic.relabel_s", "s", "lower"),
    Metric("engine.first_batch_after_swap_ms", "ms", "lower"),
    Metric("engine.first_point_after_swap_us", "us", "lower"),
    Metric("dynamic.nodes_recomputed", "count", "lower"),
    Metric("dynamic.nodes_spliced", "count", "higher"),
    Metric("dynamic.scoped_share", "ratio", "higher"),
    # shards / fleet: no workload serves through them (a fleet workload's
    # medians moved by 0.36 to 0.40 IQR/median over 10 seeds), so the traced
    # run's probe measures them and they move no end-to-end metric
    Metric("shards.router_batch_ms", "ms", "lower"),
    Metric("shards.cross_shard_fraction", "ratio", "lower"),
    Metric("fleet.ping_ms", "ms", "lower"),
    Metric("fleet.encode_us", "us", "lower"),
    Metric("fleet.decode_us", "us", "lower"),
    Metric("fleet.majority_hit_rate", "ratio", "higher"),
    Metric("fleet.mean_coalesced_batch", "count", "higher"),
    Metric("fleet.restarts", "count", "lower"),
    # answers and inputs
    Metric("error_rate", "failed/attempted", "lower"),
    Metric("input.vertices", "count", "lower"),
    Metric("input.edges", "count", "lower"),
    Metric("input.core_vertices", "count", "lower"),
    Metric("input.integer_weight_share", "ratio", "lower"),
] + [
    Metric(f"overhead.{metric.name}", metric.unit, metric.better)
    for metric in END_TO_END
]

#: seconds one run measures, passed as ``--seconds``
RUN_SECONDS = 20


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these definitions describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
