"""Per-layer metrics of the traced run.

:func:`layer_metrics` derives each per-layer metric from the spans the
workload's own calls recorded.  A layer the workload never calls (the
fleet on build-dimacs, say) is measured by a short probe on the
workload's own graph and index afterwards, in a separate tracer, so
every traced run reports every layer; ``sources`` in the run's record
says which metrics came from a probe.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.core.dynamic as dynamic
from repro.core.index import HC2LIndex
from repro.experiments.dynamic import clustered_edge_changes
from repro.experiments.workloads import random_pairs
from repro.graph.io import read_dimacs, write_dimacs
from repro.serving.fleet import FleetClient
from repro.serving.fleet.protocol import (
    KIND_REQUEST,
    KIND_RESPONSE,
    decode_binary_payload,
    encode_binary_frame,
)
from repro.serving.shards import ShardRouter

from . import inputs
from .catalogue import PER_LAYER, TAILS
from .fleetproc import ServerProcess
from .measure import median
from .spans import Tracer, instrument
from .workloads import FLEET_SHARDS, FLEET_WORKERS, Pass, scalar_answers

PHASES = ("snapshot", "hierarchy", "labelling", "shortcuts")
#: request kinds whose engine spans feed the per-pair engine metrics
BATCH_REQUESTS = ("batch", "matrix")


def _request_kinds(tracer: Tracer) -> Dict[int, str]:
    return {s.request: s.name for s in tracer.spans if s.parent is None and s.request}


def _median_seconds(spans) -> Optional[float]:
    return median([s.seconds for s in spans]) if spans else None


def derive(p: Pass, tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from one tracer's spans (missing layers left out)."""
    out: Dict[str, float] = {}
    kinds = _request_kinds(tracer)

    def put(name: str, value: Optional[float], scale: float = 1.0) -> None:
        if value is not None:
            out[name] = value * scale

    put("graph.read_dimacs_s", _median_seconds(tracer.named("graph.read_dimacs")))
    put("graph.contract_s", _median_seconds(tracer.named("graph.contract")))
    put("graph.reweighted_s", _median_seconds(tracer.named("graph.reweighted")))
    put("flat.from_labelling_s", _median_seconds(tracer.named("flat.from_labelling")))
    put("persistence.save_s", _median_seconds(tracer.named("persistence.save")))
    put("persistence.load_s", _median_seconds(tracer.named("persistence.load")))
    put("dynamic.relabel_s", _median_seconds(tracer.named("dynamic.relabel")))
    put("shards.router_batch_ms", _median_seconds(tracer.named("shards.router_batch")), 1e3)
    put("fleet.ping_ms", _median_seconds(tracer.named("fleet.ping")), 1e3)
    put("fleet.encode_us", _median_seconds(tracer.named("fleet.encode")), 1e6)
    put("fleet.decode_us", _median_seconds(tracer.named("fleet.decode")), 1e6)

    builds = tracer.named("construction.build")
    if builds:
        out["construction.build_s"] = median([s.seconds for s in builds])
        for phase in PHASES:
            out[f"construction.{phase}_s"] = median(
                [s.attrs.get(f"phase.{phase}", 0.0) for s in builds]
            )
        out["construction.unattributed_s"] = median(
            [s.seconds - sum(s.attrs.get(f"phase.{ph}", 0.0) for ph in PHASES) for s in builds]
        )
        out["construction.num_shortcuts"] = builds[-1].attrs["num_shortcuts"]

    points = [s for s in tracer.named("engine.point") if kinds.get(s.request) == "point"]
    put("engine.point_us", _median_seconds(points), 1e6)
    batches = [
        s for s in tracer.named("engine.distances") if kinds.get(s.request) in BATCH_REQUESTS
    ]
    pairs = sum(s.attrs.get("pairs", 0.0) for s in batches)
    if batches and pairs:
        total = sum(s.seconds for s in batches)
        parts = {}
        for metric, child in (
            ("oracle.as_pair_array_ns", "oracle.as_pair_array"),
            ("engine.resolve_ns", "engine.resolve"),
            ("engine.lca_ns", "engine.lca"),
        ):
            parts[metric] = sum(s.seconds for s in tracer.children_of(batches, child))
            out[metric] = parts[metric] / pairs * 1e9
        out["engine.minplus_ns"] = (total - sum(parts.values())) / pairs * 1e9
    return out


def index_facts(p: Pass) -> Dict[str, float]:
    """Counts read from the served index and the workload's inputs."""
    index = p.index
    graph = p.graph
    hub_pairs = random_pairs(graph, p.sizes.hub_sample, seed=inputs.sub_seed(p.seed, "hubs"))
    hubs = [index.distance_with_hub_count(s, t)[1] for s, t in hub_pairs]
    issued = np.asarray(p.issued, dtype=np.int64).reshape(-1, 2)
    root = np.asarray(index.contraction.root, dtype=np.int64)
    same_tree = (root[issued[:, 0]] == root[issued[:, 1]]) & (issued[:, 0] != issued[:, 1])
    return {
        "hierarchy.num_nodes": float(len(index.hierarchy.nodes)),
        "hierarchy.tree_height": float(index.tree_height()),
        "hierarchy.max_cut_size": float(index.max_cut_size()),
        "flat.label_entries": float(index.flat_labelling().total_entries()),
        "engine.hubs_per_pair": float(np.mean(hubs)),
        "engine.same_tree_share": float(same_tree.mean()) if len(issued) else 0.0,
        "input.vertices": float(graph.num_vertices),
        "input.edges": float(graph.num_edges),
        "input.core_vertices": float(index.contraction.core.num_vertices),
        "input.integer_weight_share": p.facts["integer_weight_share"],
    }


# ---------------------------------------------------------------------- #
# probes for layers a workload does not call
# ---------------------------------------------------------------------- #
def _probe_dimacs(p: Pass, tracer: Tracer, out: Dict[str, float]) -> None:
    path = p.workdir / "probe.gr"
    write_dimacs(p.graph, path)
    for _ in range(3):
        with tracer.request("probe"), tracer.span("graph.read_dimacs"):
            read_dimacs(path)


def _probe_persistence(p: Pass, tracer: Tracer, out: Dict[str, float]) -> None:
    path = p.workdir / "probe.npz"
    for _ in range(3):
        with tracer.request("probe"):
            p.index.save(path)
            HC2LIndex.load(path).close()
    out["persistence.file_bytes"] = float(path.stat().st_size)


def _probe_engine(p: Pass, tracer: Tracer, out: Dict[str, float]) -> None:
    batches = inputs.uniform_batches(p.graph, 10, p.sizes.batch_pairs, p.seed)
    for batch in batches:
        with tracer.request("batch"):
            p.index.distances(batch)
    for s, t in batches[0][:200]:
        with tracer.request("point"):
            p.index.distance(s, t)


def _probe_dynamic(p: Pass, tracer: Tracer, out: Dict[str, float]) -> None:
    changes = clustered_edge_changes(
        p.graph, p.sizes.changed_edges, 2.0, seed=inputs.sub_seed(p.seed, "probe-epoch")
    )
    batch = p.local[0]
    s, t = batch[0]
    with tracer.request("probe"):
        # through the module attribute, so the traced wrapper sees the call
        changed = dynamic.relabel(p.index, p.graph.reweighted(changes), changes)
    # the relabelled index's first answer builds its query engine
    start = time.perf_counter()
    changed.distance(s, t)
    out["engine.first_point_after_swap_us"] = (time.perf_counter() - start) * 1e6
    start = time.perf_counter()
    changed.distances(batch)
    out["engine.first_batch_after_swap_ms"] = (time.perf_counter() - start) * 1e3
    summary = changed.describe()
    out["dynamic.scoped_share"] = summary.get("relabel_scoped", 0.0)
    out["dynamic.nodes_recomputed"] = summary.get("relabel_nodes_recomputed", 0.0)
    out["dynamic.nodes_spliced"] = summary.get("relabel_nodes_spliced", 0.0)


def _layout(p: Pass):
    if p.layout is None:
        p.layout = p.workdir / "probe-layout.npz"
        p.index.save_sharded(p.layout, num_shards=FLEET_SHARDS, boundaries="hierarchy")
    return p.layout


def _probe_router(p: Pass, tracer: Tracer, out: Dict[str, float]) -> None:
    with ShardRouter(_layout(p)) as router:
        for batch in p.local:
            with tracer.request("probe"):
                got = router.distances(batch)
            p.checker.equal("router batch", got, scalar_answers(p.index, batch))
        out["shards.cross_shard_fraction"] = router.stats.cross_shard_fraction()


def _probe_codec(p: Pass, tracer: Tracer, out: Dict[str, float]) -> None:
    """Encode a batch request and decode a matrix reply of the workload's shapes."""
    request = np.asarray(p.local[0], dtype=np.int64).reshape(-1, 2)
    side = p.sizes.local_matrix_side
    reply = p.index.many_to_many(request[:side, 0], request[:side, 1])
    reply_frame = encode_binary_frame(KIND_RESPONSE, "many_to_many", 1, [reply])
    for _ in range(200):
        with tracer.request("probe"):
            with tracer.span("fleet.encode"):
                encode_binary_frame(KIND_REQUEST, "distances", 1, [request])
            with tracer.span("fleet.decode"):
                decoded = decode_binary_payload(reply_frame[4:])
    if not np.array_equal(decoded.arrays[0], reply):
        p.checker.fail("binary frame round trip")


async def _fleet_calls(p: Pass, tracer: Tracer, host: str, port: int) -> Dict[str, object]:
    clients = [await FleetClient.connect(host, port, wire="binary") for _ in range(2)]
    try:
        for _ in range(50):
            with tracer.request("probe"), tracer.span("fleet.ping"):
                await clients[0].ping()
        for batch in p.local:
            expected = scalar_answers(p.index, batch)
            got = await asyncio.gather(*(c.distances(batch) for c in clients))
            for answer in got:
                p.checker.equal("probe fleet batch", answer, expected)
            # two scalar calls in flight at once, so the coalescer has work
            pairs = batch[:8]
            got = await asyncio.gather(
                *(clients[i % 2].distance(s, t) for i, (s, t) in enumerate(pairs))
            )
            p.checker.equal("probe fleet points", got, scalar_answers(p.index, pairs))
        return await clients[0].stats()
    finally:
        for client in clients:
            await client.aclose()


def _probe_fleet(p: Pass, tracer: Tracer, out: Dict[str, float]) -> None:
    server = ServerProcess(p.src, _layout(p), FLEET_WORKERS, p.workdir)
    try:
        host, port = server.wait_address()
        stats = asyncio.run(_fleet_calls(p, tracer, host, port))
    finally:
        server.stop()
    out["fleet.majority_hit_rate"] = float(stats["majority_hit_rate"])
    out["fleet.mean_coalesced_batch"] = int(stats["scalar_requests"]) / max(
        1, int(stats["coalesce_flushes"])
    )
    out["fleet.restarts"] = float(stats["restarts"])
    for _ in range(int(stats["retries"]) + int(stats["restarts"])):
        p.checker.fail("fleet worker retry or restart")


#: probes in run order, each with the metrics it supplies
PROBES: List[Tuple[object, Tuple[str, ...]]] = [
    (_probe_dimacs, ("graph.read_dimacs_s",)),
    (_probe_persistence, ("persistence.save_s", "persistence.load_s", "persistence.file_bytes")),
    (_probe_engine, ("oracle.as_pair_array_ns", "engine.resolve_ns", "engine.lca_ns",
                     "engine.minplus_ns", "engine.point_us")),
    (_probe_dynamic, ("graph.reweighted_s", "dynamic.relabel_s",
                      "engine.first_batch_after_swap_ms", "engine.first_point_after_swap_us",
                      "dynamic.nodes_recomputed", "dynamic.nodes_spliced",
                      "dynamic.scoped_share")),
    (_probe_router, ("shards.router_batch_ms", "shards.cross_shard_fraction")),
    (_probe_codec, ("fleet.encode_us", "fleet.decode_us")),
    (_probe_fleet, ("fleet.ping_ms", "fleet.majority_hit_rate", "fleet.mean_coalesced_batch",
                    "fleet.restarts")),
]


def layer_metrics(p: Pass, tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, str], Tracer]:
    """Every per-layer metric except the tails, the overheads and ``error_rate``.

    Returns ``(metrics, sources, probe_tracer)``; ``sources`` maps each
    metric to ``"workload"`` or ``"probe"``.
    """
    metrics = dict(p.layer)
    if "file_bytes" in p.facts:
        metrics["persistence.file_bytes"] = p.facts["file_bytes"]
    metrics.update(derive(p, tracer))
    metrics.update(index_facts(p))
    sources = {name: "workload" for name in metrics}

    probe_tracer = Tracer()
    probed: Dict[str, float] = {}
    with instrument(probe_tracer):
        for probe, names in PROBES:
            if any(name not in metrics for name in names):
                probe(p, probe_tracer, probed)
    probed.update(derive(p, probe_tracer))
    for name, value in probed.items():
        if name not in metrics:
            metrics[name] = value
            sources[name] = "probe"
    added_later = {m.name for m in TAILS} | {"error_rate"}
    wanted = [m.name for m in PER_LAYER if not m.name.startswith("overhead.")]
    missing = [name for name in wanted if name not in metrics and name not in added_later]
    if missing:
        raise RuntimeError(f"traced run produced no value for {missing}")
    return metrics, sources, probe_tracer
