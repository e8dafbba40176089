"""Known-answer tests for HC2L construction and relabelling.

Fixed graphs with recorded digests of what the builder produces: the
sha256 of the :class:`~repro.core.flat.FlatLabelling` buffers and of the
hierarchy node records.  Every backend and the process-pool build must
reproduce them bit for bit, so a change that moves a single label value,
level boundary, cut order or hierarchy link fails here even when all
execution paths still agree with each other.  Relabelling
(:func:`repro.core.dynamic.relabel`) is pinned the same way, for the full
pass and the scoped walk.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.core.dynamic as dynamic
from repro.core.construction import HC2LBuilder
from repro.core.index import HC2LIndex

from helpers import fuzz_graph, scoped_fuzz_graph


#: name -> (graph factory taking the pytest ``request``, leaf_size,
#: labels digest, hierarchy digest)
KNOWN_ANSWERS = {
    "fuzz-sparse-0": (
        lambda request: fuzz_graph("sparse", 0),
        4,
        "df9878e2f49dcceacc7dc6b5ca98c0facc45b5035380ca311438f65359bff8ac",
        "152e1173505dcef0a1c91009f3684d3d5279388d8353cf35258c98595d872dfb",
    ),
    "fuzz-tree_heavy-2": (
        lambda request: fuzz_graph("tree_heavy", 2),
        4,
        "8a2722c678432e56a6adf1f06cdc9af0ed17442f10797d0336d435d8ebcb9ab6",
        "58655a167f6dd439830ff5313d09bb7aefdf6e22c7b462e5c37d9bedaf9ded25",
    ),
    "disconnected": (
        lambda request: request.getfixturevalue("disconnected_graph"),
        2,
        "5f570620b2362e953443ef2b4e5217cb9416505c04e101ed1458e45924da42eb",
        "47a2bbc4c0267c78bec5b32e5ba9a81f3865e6fabb77b1a7369a5d12c5304593",
    ),
    "small-road": (
        lambda request: request.getfixturevalue("small_graph"),
        8,
        "71090c4930467de77377bae0d8b7f8854f0ce42be1ebcc30edcd52b08e61da5f",
        "7324f7b13bcf775c4239e7ff05f12bb4e1f6143691f4063698ef4b5ec13c3f18",
    ),
}

#: builder keyword arguments per execution path under test
BUILDS = {
    "heap": {"backend": "heap"},
    "csr": {"backend": "csr"},
    "process-2": {"backend": "csr", "num_workers": 2, "parallel_threshold": 4},
}


def labels_digest(flat) -> str:
    digest = hashlib.sha256()
    for array in (flat.values, flat.level_indptr, flat.vertex_indptr):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def hierarchy_digest(hierarchy) -> str:
    signature = [
        (
            int(node.depth),
            int(node.bits),
            [int(v) for v in node.cut],
            None if node.parent is None else int(node.parent),
            None if node.left is None else int(node.left),
            None if node.right is None else int(node.right),
            int(node.subtree_size),
            bool(node.is_leaf),
        )
        for node in hierarchy.nodes
    ]
    return hashlib.sha256(repr(signature).encode()).hexdigest()


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("name", sorted(KNOWN_ANSWERS))
def test_build_reproduces_known_digests(request, name, build):
    make_graph, leaf_size, labels_sha, hierarchy_sha = KNOWN_ANSWERS[name]
    builder = HC2LBuilder(leaf_size=leaf_size, **BUILDS[build])
    hierarchy, labelling, stats = builder.build(make_graph(request))
    assert labels_digest(labelling) == labels_sha
    assert hierarchy_digest(hierarchy) == hierarchy_sha
    # the pool path must really have shipped work for the comparison to count
    assert (stats.num_tasks > 0) == (builder.num_workers >= 2)


#: name -> (graph factory, changed edge weights, labels digest, hierarchy
#: digest, (nodes recomputed, nodes spliced) of the scoped relabel or None
#: when scoping does not pay, whether a cut-crossing shortcut appears).
#: Index built with ``leaf_size=4``; full and scoped relabels agree.
RELABEL_KNOWN_ANSWERS = {
    "fuzz-sparse-1": (
        lambda: fuzz_graph("sparse", 1),
        {(3, 7): 39.0, (19, 36): 1.5},
        "e6d0108dcb3abe6b59f48f7aa973f4993cec0efd853915956de1c3f0ea41e8a4",
        "80160fb27fe64f77190b939d788d9b5649a6e5769be5d3bf7527ba5b3a659afa",
        (2, 3),
        False,
    ),
    # the scoped walk meets a crossing shortcut and falls back to the
    # per-node recompute for that subtree
    "crossing-scoped": (
        lambda: scoped_fuzz_graph("sparse_core", 3),
        {(7, 24): 24.0, (23, 45): 4.0},
        "1ca5a6cf2f269d566ba8155387376ad71abfcac02d693e90f7093b571b30c18d",
        "ca6e15c85875062553d084565c7ed5f2aab5233eeb45bfd30384face58fd6460",
        (4, 5),
        True,
    ),
    # the fixture of TestCrossingShortcutRegression: scoping does not pay,
    # so both calls run the full pass, which promotes the crossing hubs
    "crossing": (
        lambda: scoped_fuzz_graph("sparse_core", 0),
        {(0, 1): 40.0},
        "9292f0ef70c42a556e866d56f34298e5f22b12ef9b4243ae3c3a3589f5fb999c",
        "d6194cf5648581d804048f6a2cf51a4754fbac3837c541e5b8e6f47a69591c53",
        None,
        True,
    ),
}


@pytest.mark.parametrize("backend", ["heap", "csr"])
@pytest.mark.parametrize("scoped", [False, True], ids=["full", "scoped"])
@pytest.mark.parametrize("name", sorted(RELABEL_KNOWN_ANSWERS))
def test_relabel_reproduces_known_digests(monkeypatch, name, scoped, backend):
    make_graph, changed, labels_sha, hierarchy_sha, counts, crosses = (
        RELABEL_KNOWN_ANSWERS[name]
    )
    extensions = []
    find_extension = dynamic._crossing_extension

    def spy(*args):
        found = find_extension(*args)
        extensions.extend(found)
        return found

    monkeypatch.setattr(dynamic, "_crossing_extension", spy)
    graph = make_graph()
    index = HC2LIndex.build(graph, leaf_size=4, backend=backend)
    relabelled = dynamic.relabel(index, graph.reweighted(changed), changed if scoped else None)
    assert labels_digest(relabelled.flat_labelling()) == labels_sha
    assert hierarchy_digest(relabelled.hierarchy) == hierarchy_sha
    assert bool(extensions) == crosses
    summary = relabelled.describe()
    if scoped and counts is not None:
        assert summary["relabel_scoped"] == 1.0
        assert (
            summary["relabel_nodes_recomputed"],
            summary["relabel_nodes_spliced"],
        ) == counts
    else:
        assert "relabel_scoped" not in summary
