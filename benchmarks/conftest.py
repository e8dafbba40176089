"""Shared fixtures for the benchmark suite.

The benchmarks regenerate the paper's tables and figures on the synthetic
stand-in datasets.  Two environment variables control their weight:

``REPRO_BENCH_DATASETS``
    comma-separated dataset names (default: NY, BAY, COL, FLA, CAL).
``REPRO_BENCH_SCALE``
    multiplies the synthetic dataset sizes (default 1).

Every benchmark writes its reproduced table or figure as text to
``results/<name>.txt`` under the repository root (git-ignored); re-run
``REPRO_BENCH_DATASETS=NY python -m pytest benchmarks -q`` to refresh them.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.datasets import bench_dataset_names, load_dataset
from repro.experiments.workloads import random_pairs

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: number of random query pairs measured per dataset in the table benchmarks
BENCH_QUERY_COUNT = 1000


def write_result(name: str, text: str) -> Path:
    """Write a reproduced table/figure to ``results/<name>.txt``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def bench_datasets() -> list[str]:
    """Datasets the benchmark session covers."""
    return bench_dataset_names()


@pytest.fixture(scope="session")
def primary_dataset(bench_datasets):
    """The first (smallest) benchmark dataset, used for per-method query benchmarks."""
    name = bench_datasets[0]
    network = load_dataset(name)
    graph = network.distance_graph
    pairs = random_pairs(graph, BENCH_QUERY_COUNT, seed=71)
    return name, network, graph, pairs


@pytest.fixture(scope="session")
def distance_evaluation(bench_datasets):
    """One shared evaluation run with distance weights (Tables 2, 3, 5, Figure 6).

    Building every index dominates the benchmark runtime, so the evaluation
    is performed once per session and the individual table benchmarks slice
    what they need from it.
    """
    from repro.experiments.evaluation import run_evaluation

    return run_evaluation(
        datasets=bench_datasets,
        methods=["HC2L", "HC2L_p", "H2H", "PHL", "HL"],
        weighting="distance",
        num_queries=BENCH_QUERY_COUNT,
        keep_indexes=True,
    )


@pytest.fixture(scope="session")
def travel_time_evaluation(bench_datasets):
    """The travel-time counterpart used by Table 4."""
    from repro.experiments.evaluation import run_evaluation

    return run_evaluation(
        datasets=bench_datasets,
        methods=["HC2L", "HC2L_p", "H2H", "PHL", "HL"],
        weighting="travel_time",
        num_queries=BENCH_QUERY_COUNT,
        keep_indexes=False,
    )
