"""Command line: run one workload and print its metrics as JSON.

The last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it is a record of sample counts,
tail percentiles, input properties and (traced runs) where each layer
metric came from.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
from pathlib import Path
from typing import Dict, Tuple

from .catalogue import END_TO_END, PER_LAYER
from .inputs import FULL, Sizes
from .layers import index_facts, layer_metrics
from .measure import Checker, median, tail
from .spans import NULL_TRACER, Tracer, instrument
from .workloads import WORKLOADS, Pass

#: where runs write spans and their scratch files, relative to the checkout
OUT_DIR = ".perfbench_out"
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
LATENCIES = (("point", "point_p50_us", "point_p99_us", 1e6),
             ("batch", "batch_p50_ms", "batch_p99_ms", 1e3),
             ("matrix", "matrix_p50_ms", "matrix_p99_ms", 1e3))


def end_to_end(p: Pass) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The end-to-end metrics of one pass, and the samples and tails behind them.

    The record holds each latency's sample count and p99 (with the
    percentile it really is when fewer than 10 samples lie beyond p99).
    """
    samples = p.samples
    metrics: Dict[str, float] = {
        "setup_s": median(samples.get("setup")),
        "build_s": median(samples.get("build")),
        "label_bytes": p.facts["label_bytes"],
        "pairs_per_s": p.facts["query_pairs"] / p.facts["query_seconds"],
        "update_p50_s": median(samples.get("update")),
        "update_total_s": p.facts["update_total_s"],
        "peak_rss_mb": p.facts["peak_rss_mb"],
    }
    counts: Dict[str, object] = {
        kind: samples.count(kind) for kind in ("setup", "build", "update")
    }
    if "update_rounds" in p.facts:
        counts["update_rounds"] = int(p.facts["update_rounds"])
    for kind, p50, p99, scale in LATENCIES:
        values = samples.get(kind)
        metrics[p50] = median(values) * scale
        value, percentile = tail(values)
        counts[kind] = {"samples": len(values), p99: value * scale, "percentile": percentile}
    return metrics, counts


def input_record(p: Pass) -> Dict[str, float]:
    facts = index_facts(p)
    record = {name: value for name, value in facts.items() if name.startswith("input.")}
    for name in ("engine.same_tree_share", "engine.hubs_per_pair"):
        record[name] = facts[name]
    for name in ("dynamic.scoped_share", "shards.cross_shard_fraction"):
        if name in p.layer:
            record[name] = p.layer[name]
    return record


def run_pass(name: str, seed: int, seconds: float, sizes: Sizes, workdir: Path, src: Path,
             tracer, checker: Checker) -> Pass:
    p = Pass(workload=name, seed=seed, seconds=seconds, sizes=sizes, workdir=workdir,
             src=src, tracer=tracer, checker=checker)
    WORKLOADS[name](p)
    return p


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 sizes: Sizes = FULL, corrupt: int = 0) -> Tuple[dict, dict]:
    """Run one workload; returns ``(result, record)``.

    ``corrupt`` perturbs that many expected answers (self-test only).
    """
    out_dir = root / OUT_DIR
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    src = root / "src"
    checker = Checker(corrupt=corrupt)
    record: Dict[str, object] = {"workload": name, "seed": seed, "trace": int(trace)}
    try:
        untraced = run_pass(name, seed, seconds, sizes, workdir, src, NULL_TRACER, checker)
        e2e, record["samples"] = end_to_end(untraced)
        record["inputs"] = input_record(untraced)
        record["fingerprint"] = untraced.fingerprint
        error_rate = checker.error_rate
        metrics = e2e
        if trace:
            del untraced
            gc.collect()
            tracer = Tracer()
            with instrument(tracer):
                traced = run_pass(name, seed, seconds, sizes, workdir, src, tracer, checker)
            e2e_traced, _ = end_to_end(traced)
            metrics, record["sources"], probe_tracer = layer_metrics(traced, tracer)
            metrics["error_rate"] = error_rate
            for kind, _, p99, _ in LATENCIES:
                metrics[p99] = record["samples"][kind][p99]
            for metric in END_TO_END:
                metrics[f"overhead.{metric.name}"] = e2e_traced[metric.name] - e2e[metric.name]
            trace_path = out_dir / f"trace-{name}-{seed}.json"
            tracer.spans.extend(probe_tracer.spans)
            tracer.write(trace_path)
            record["trace_file"] = str(trace_path.relative_to(root))
        record["failures"] = checker.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": float(value), "unit": UNITS[key]}
                    for key, value in metrics.items()},
    }
    return result, record


def main(argv, root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0
