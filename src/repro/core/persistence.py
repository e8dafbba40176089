"""Versioned on-disk formats for :class:`~repro.core.index.HC2LIndex`.

The original reproduction pickled the whole index object, which (a)
executes arbitrary code on load, (b) breaks whenever an internal class
changes shape, and (c) stores the nested label lists at Python-object
prices.  Two formats live here:

**Single archive** (:func:`save_index` / :func:`load_index`) - one
``.npz`` archive (the standard numpy zip container) holding

* a JSON header with an explicit format name + version, the construction
  parameters, statistics and metadata, and
* typed arrays for the graph edges, the degree-one contraction, the tree
  hierarchy and the flat label buffers of
  :class:`~repro.core.flat.FlatLabelling`.

**Sharded layout** (:func:`save_index_sharded` / :func:`load_shard`) - a
``<path>.shards/`` directory partitioning the label buffers by core
vertex range for multi-worker serving:

* ``manifest.json`` - shard boundaries, file names and per-shard sizes,
* ``base.npz`` - the label-free remainder of the single archive (header,
  graph, contraction, hierarchy), and
* ``shard-NNNN.npz`` - the re-based flat label buffers of one vertex
  range (the same member names as the single archive, so the per-shard
  mmap sidecar machinery of :func:`mmap_label_arrays` applies unchanged).

Generation ``g > 0`` names its files ``base.gG.npz`` and
``shard-NNNN.gG.npz``, so a reader pinned to an older manifest never
opens a file the writer is replacing; the previous generation's files are
deleted once the new manifest is in place.

Loading validates headers first and raises a clear ``ValueError`` on
anything that is not a compatible archive.  Version-1 single archives
(written before the sharded layout existed) still load; pre-existing
pickle files can also be read, but only when the caller explicitly opts
in with ``allow_pickle=True`` (pickle can execute arbitrary code).
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.construction import ConstructionStats
from repro.core.flat import FlatLabelling
from repro.graph.contraction import ContractedGraph
from repro.graph.graph import Graph
from repro.hierarchy.tree import BalancedTreeHierarchy, TreeNode
from repro.utils.timer import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.index import HC2LIndex

FORMAT_NAME = "hc2l-index"
#: current single-archive version; version 2 added the ``label_layout``
#: header key (sharded layouts), version 3 persists the hierarchy's DFS
#: subtree ranges (``hier_node_range_lo/hi`` + ``hier_core_position``) so
#: hierarchy-aligned shard boundaries load without re-walking the tree
FORMAT_VERSION = 3
#: single-archive versions this build can read
SUPPORTED_VERSIONS = (1, 2, 3)

SHARDED_FORMAT_NAME = "hc2l-index-shards"
#: manifest version 2 added the ``vertex_order`` key (``identity`` for the
#: classic core-id ranges, ``hierarchy`` for DFS-ordered subtree ranges);
#: version-1 layouts still load and imply identity order
SHARDED_FORMAT_VERSION = 2
SUPPORTED_SHARDED_VERSIONS = (1, 2)
#: accepted ``vertex_order`` manifest values
VERTEX_ORDERS = ("identity", "hierarchy")
MANIFEST_FILENAME = "manifest.json"

TREE_SIDECAR_FORMAT = "hc2l-tree-resolver"
TREE_SIDECAR_VERSION = 1
TREE_SIDECAR_META = "meta.json"


# --------------------------------------------------------------------- #
# save
# --------------------------------------------------------------------- #
def _index_header(index: "HC2LIndex", label_layout: str) -> dict:
    """The JSON header shared by the single archive and the sharded base."""
    parameters = index.parameters
    stats = index.stats
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "label_layout": label_layout,
        "parameters": {
            "beta": parameters.beta,
            "leaf_size": parameters.leaf_size,
            "tail_pruning": parameters.tail_pruning,
            "contract": parameters.contract,
            "num_workers": parameters.num_workers,
            # absent in pre-backend archives; HC2LParameters defaults them
            "backend": getattr(parameters, "backend", "auto"),
            # absent before the flow-method switch existed; "auto" keeps
            # legacy archives on the backend-selected solver
            "flow_method": getattr(parameters, "flow_method", "auto"),
        },
        "construction_seconds": index.construction_seconds,
        "extra": dict(index._extra),
        "stats": {
            "num_nodes": stats.num_nodes,
            "num_leaves": stats.num_leaves,
            "num_shortcuts": stats.num_shortcuts,
            "num_empty_cuts": stats.num_empty_cuts,
            "max_depth": stats.max_depth,
            "timer": dict(stats.timer.durations),
        },
        "graph_num_vertices": index.graph.num_vertices,
        "core_num_vertices": index.contraction.core.num_vertices,
        "num_original": index.contraction.num_original,
    }


def _base_arrays(index: "HC2LIndex", label_layout: str) -> Dict[str, np.ndarray]:
    """Header + graph + contraction + hierarchy arrays (no labels)."""
    arrays: Dict[str, np.ndarray] = {}
    arrays["header"] = np.frombuffer(
        json.dumps(_index_header(index, label_layout)).encode("utf-8"), dtype=np.uint8
    ).copy()
    _pack_graph(arrays, "graph", index.graph)
    _pack_contraction(arrays, index.contraction)
    _pack_hierarchy(arrays, index.hierarchy)
    return arrays


def _write_npz(path: Union[str, Path], arrays: Dict[str, np.ndarray]) -> None:
    # write-then-rename so a concurrent reader (e.g. a ShardRouter lazily
    # loading a shard while the layout is being rewritten) never opens a
    # torn archive; the open handle also stops np.savez from appending
    # ".npz" to paths with a different extension
    path = Path(path)
    temporary = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def save_index(index: "HC2LIndex", path: Union[str, Path]) -> None:
    """Serialise ``index`` to ``path`` in the versioned ``.npz`` format."""
    arrays = _base_arrays(index, label_layout="inline")
    flat = index.flat_labelling()
    arrays["label_values"] = flat.values
    arrays["label_level_indptr"] = flat.level_indptr
    arrays["label_vertex_indptr"] = flat.vertex_indptr
    _write_npz(path, arrays)


def _pack_graph(arrays: Dict[str, np.ndarray], prefix: str, graph: Graph) -> None:
    edges = list(graph.edges())
    arrays[f"{prefix}_edges_u"] = np.asarray([e[0] for e in edges], dtype=np.int64)
    arrays[f"{prefix}_edges_v"] = np.asarray([e[1] for e in edges], dtype=np.int64)
    arrays[f"{prefix}_edges_w"] = np.asarray([e[2] for e in edges], dtype=np.float64)


def _pack_contraction(arrays: Dict[str, np.ndarray], contraction: ContractedGraph) -> None:
    _pack_graph(arrays, "core", contraction.core)
    arrays["con_core_to_original"] = np.asarray(contraction.core_to_original, dtype=np.int64)
    arrays["con_original_to_core"] = np.asarray(contraction.original_to_core, dtype=np.int64)
    arrays["con_root"] = np.asarray(contraction.root, dtype=np.int64)
    arrays["con_parent"] = np.asarray(contraction.parent, dtype=np.int64)
    arrays["con_depth"] = np.asarray(contraction.depth, dtype=np.int64)
    arrays["con_dist_to_parent"] = np.asarray(contraction.dist_to_parent, dtype=np.float64)
    arrays["con_dist_to_root"] = np.asarray(contraction.dist_to_root, dtype=np.float64)


def _pack_hierarchy(arrays: Dict[str, np.ndarray], hierarchy: BalancedTreeHierarchy) -> None:
    nodes = hierarchy.nodes
    none = -1
    arrays["hier_node_depth"] = np.asarray([n.depth for n in nodes], dtype=np.int64)
    arrays["hier_node_parent"] = np.asarray(
        [none if n.parent is None else n.parent for n in nodes], dtype=np.int64
    )
    arrays["hier_node_left"] = np.asarray(
        [none if n.left is None else n.left for n in nodes], dtype=np.int64
    )
    arrays["hier_node_right"] = np.asarray(
        [none if n.right is None else n.right for n in nodes], dtype=np.int64
    )
    arrays["hier_node_subtree"] = np.asarray([n.subtree_size for n in nodes], dtype=np.int64)
    arrays["hier_node_is_leaf"] = np.asarray([n.is_leaf for n in nodes], dtype=np.int8)

    cut_indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    cut_values: List[int] = []
    for i, node in enumerate(nodes):
        cut_values.extend(node.cut)
        cut_indptr[i + 1] = len(cut_values)
    arrays["hier_cut_values"] = np.asarray(cut_values, dtype=np.int64)
    arrays["hier_cut_indptr"] = cut_indptr

    # path bitstrings are arbitrary-precision ints (one bit per tree level);
    # store them big-endian byte-packed so any height round-trips losslessly
    bits_indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    bits_bytes = bytearray()
    for i, node in enumerate(nodes):
        encoded = node.bits.to_bytes((node.bits.bit_length() + 7) // 8, "big")
        bits_bytes.extend(encoded)
        bits_indptr[i + 1] = len(bits_bytes)
    arrays["hier_node_bits"] = np.frombuffer(bytes(bits_bytes), dtype=np.uint8).copy()
    arrays["hier_node_bits_indptr"] = bits_indptr

    arrays["hier_vertex_node"] = np.asarray(hierarchy.vertex_node, dtype=np.int64)

    # version 3: the DFS linearisation backing hierarchy-aligned shards
    position = hierarchy.subtree_ranges()
    arrays["hier_core_position"] = np.asarray(position, dtype=np.int64)
    arrays["hier_node_range_lo"] = np.asarray([n.range_lo for n in nodes], dtype=np.int64)
    arrays["hier_node_range_hi"] = np.asarray([n.range_hi for n in nodes], dtype=np.int64)


# --------------------------------------------------------------------- #
# load
# --------------------------------------------------------------------- #
def load_index(
    path: Union[str, Path],
    allow_pickle: bool = False,
    mmap_labels: bool = False,
) -> "HC2LIndex":
    """Load an index saved by :func:`save_index`.

    Raises a descriptive ``ValueError`` when the file is not a (compatible)
    HC2L archive.  With ``allow_pickle=True`` a file that is not an ``.npz``
    archive is additionally tried as a legacy pickle.

    With ``mmap_labels=True`` the flat label buffers - by far the largest
    arrays in the archive - are memory-mapped read-only instead of copied
    into the process.  Numpy cannot map members of a zip container
    directly, so the three buffers are extracted once into plain ``.npy``
    sidecar files next to the archive (``<path>.mmap/``) and mapped from
    there; every further process mapping the same sidecars shares one
    physical copy through the OS page cache.  Distances are bit-identical
    to an in-memory load.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as error:
        if allow_pickle:
            return _load_legacy_pickle(path)
        raise ValueError(
            f"{path} is not an HC2L .npz index archive ({error}); "
            f"pass allow_pickle=True to read legacy pickle files"
        ) from error

    with archive:
        header = _validate_header(archive, path)
        if header.get("label_layout", "inline") != "inline":
            raise ValueError(
                f"{path} is the base archive of a sharded layout (no inline "
                f"labels); open it with repro.serving.ShardRouter or "
                f"load_index_sharded instead"
            )
        index = _unpack_index(archive, header, path=path, mmap_labels=mmap_labels)
    if mmap_labels:
        # the mmap path is the shared-page serving entry point: also map
        # the Euler-tour sidecar when a fresh one sits next to the labels
        resolver = load_tree_sidecar(path, index.contraction, mmap=True)
        if resolver is not None:
            index.attach_tree_resolver(resolver)
    return index


def _validate_header(archive, path: Union[str, Path]) -> dict:
    """Parse + validate the JSON header of a (single or base) archive."""
    if "header" not in archive.files:
        raise ValueError(f"{path} is an .npz archive but has no HC2L header")
    header = json.loads(bytes(archive["header"].tobytes()).decode("utf-8"))
    if header.get("format") != FORMAT_NAME:
        raise ValueError(
            f"{path} has format {header.get('format')!r}, expected {FORMAT_NAME!r}"
        )
    if header.get("version") not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"{path} has format version {header.get('version')!r}; "
            f"this build reads versions {list(SUPPORTED_VERSIONS)}"
        )
    return header


def _load_legacy_pickle(path: Union[str, Path]) -> "HC2LIndex":
    from repro.core.index import HC2LIndex

    with open(path, "rb") as handle:
        index = pickle.load(handle)
    if not isinstance(index, HC2LIndex):
        raise TypeError(f"{path} does not contain an HC2LIndex")
    # Pickles restore __dict__ directly, bypassing __init__.  Files written
    # when HC2LIndex stored nested labels (pre flat-primary storage) carry a
    # 'labelling' instance attribute and lack the flat buffer; normalise so
    # the loaded index satisfies the current storage invariants.
    state = index.__dict__
    nested = state.pop("labelling", None)
    if state.get("_flat") is None:
        if nested is None:
            raise TypeError(f"{path} contains an HC2LIndex pickle without labels")
        state["_flat"] = FlatLabelling.from_labelling(nested)
    state.setdefault("_engine", None)
    state.setdefault("_labelling_view", None)
    state.setdefault("_extra", {})
    return index


def _unpack_graph(archive, prefix: str, num_vertices: int) -> Graph:
    graph = Graph(num_vertices)
    us = archive[f"{prefix}_edges_u"].tolist()
    vs = archive[f"{prefix}_edges_v"].tolist()
    ws = archive[f"{prefix}_edges_w"].tolist()
    for u, v, w in zip(us, vs, ws):
        graph.add_edge(u, v, w)
    return graph


#: archive members holding the flat label buffers (the mmap-shareable part)
LABEL_ARRAY_NAMES = ("label_values", "label_level_indptr", "label_vertex_indptr")


def mmap_label_arrays(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Memory-map the flat label buffers of the archive at ``path``.

    Extracts the three label arrays into ``<path>.mmap/<name>.npy`` sidecar
    files (skipped when up-to-date sidecars already exist) and returns them
    as read-only ``np.memmap``-backed arrays.  Multiple serving processes
    mapping the same sidecars share one physical copy of the labels.
    """
    path = Path(path)
    sidecar_dir = Path(str(path) + ".mmap")
    archive_mtime = path.stat().st_mtime

    def is_stale(sidecar: Path) -> bool:
        # <=, not <: an archive rewritten within the filesystem's mtime
        # granularity must not keep serving the old labels
        return not sidecar.exists() or sidecar.stat().st_mtime <= archive_mtime

    stale = [name for name in LABEL_ARRAY_NAMES if is_stale(sidecar_dir / f"{name}.npy")]
    if stale:
        sidecar_dir.mkdir(parents=True, exist_ok=True)
        with np.load(path, allow_pickle=False) as archive:
            for name in stale:
                # write-then-rename so concurrent loaders never map a torn
                # file; os.replace is atomic within one directory
                final = sidecar_dir / f"{name}.npy"
                temporary = sidecar_dir / f".{name}.{os.getpid()}.tmp.npy"
                np.save(temporary, archive[name])
                os.replace(temporary, final)
    return {
        name: np.load(sidecar_dir / f"{name}.npy", mmap_mode="r")
        for name in LABEL_ARRAY_NAMES
    }


def tree_sidecar_directory(path: Union[str, Path]) -> Path:
    """The ``<path>.tree/`` sidecar directory of an index path."""
    return Path(str(path) + ".tree")


def save_tree_sidecar(index: "HC2LIndex", path: Union[str, Path]) -> Path:
    """Persist the Euler-tour tree resolver next to the index at ``path``.

    The :class:`~repro.core.tree_resolve.TreeDistanceResolver` is normally
    rebuilt lazily per process (a full walk over every contracted vertex);
    persisting its arrays as versioned ``.npy`` sidecars under
    ``<path>.tree/`` shaves that cold-start cost for tree-heavy serving
    workloads - ``load_index(..., mmap_labels=True)`` maps them read-only,
    so co-located workers share one physical copy of the tour.  Answers
    are bit-identical to a freshly built resolver.  Returns the sidecar
    directory.
    """
    resolver = index.engine.resolver.tree_resolver
    path = Path(path)
    sidecar_dir = tree_sidecar_directory(path)
    sidecar_dir.mkdir(parents=True, exist_ok=True)
    arrays = resolver.state_arrays()
    for name, array in arrays.items():
        final = sidecar_dir / f"{name}.npy"
        temporary = sidecar_dir / f".{name}.{os.getpid()}.tmp.npy"
        np.save(temporary, np.ascontiguousarray(array))
        os.replace(temporary, final)  # concurrent loaders never map a torn file
    archive_stat = path.stat() if path.exists() else None
    meta = {
        "format": TREE_SIDECAR_FORMAT,
        "version": TREE_SIDECAR_VERSION,
        "num_members": resolver.num_members,
        "num_original": index.contraction.num_original,
        # identity of the archive this sidecar belongs to; mtime *equality*
        # (not ordering) makes the staleness check immune to coarse
        # filesystem mtime granularity
        "archive_mtime_ns": archive_stat.st_mtime_ns if archive_stat else None,
        "archive_size": archive_stat.st_size if archive_stat else None,
    }
    meta_path = sidecar_dir / TREE_SIDECAR_META
    temporary = sidecar_dir / f".{TREE_SIDECAR_META}.{os.getpid()}.tmp"
    temporary.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    # the meta file is written last: its presence marks a complete sidecar
    os.replace(temporary, meta_path)
    return sidecar_dir


def load_tree_sidecar(path: Union[str, Path], contraction: ContractedGraph, mmap: bool = True):
    """Load the tree-resolver sidecar of the index at ``path``, if usable.

    Returns a ready :class:`~repro.core.tree_resolve.TreeDistanceResolver`
    or ``None`` when no sidecar exists, it has an unknown format/version,
    it disagrees with the index (vertex count, member set), or the archive
    was rewritten since the sidecar was saved (the meta file records the
    archive's exact mtime and size at save time, so a rewrite - even
    within the filesystem's mtime granularity window - invalidates the
    sidecar).
    """
    from repro.core.tree_resolve import TreeDistanceResolver

    path = Path(path)
    sidecar_dir = tree_sidecar_directory(path)
    meta_path = sidecar_dir / TREE_SIDECAR_META
    if not meta_path.exists() or not path.exists():
        return None
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except ValueError:
        return None
    if (
        meta.get("format") != TREE_SIDECAR_FORMAT
        or meta.get("version") != TREE_SIDECAR_VERSION
        or int(meta.get("num_original", -1)) != contraction.num_original
    ):
        return None
    archive_stat = path.stat()
    if (
        meta.get("archive_mtime_ns") != archive_stat.st_mtime_ns
        or meta.get("archive_size") != archive_stat.st_size
    ):
        return None
    arrays = {}
    for name in TreeDistanceResolver.STATE_ARRAY_NAMES:
        array_path = sidecar_dir / f"{name}.npy"
        if not array_path.exists():
            return None
        arrays[name] = np.load(array_path, mmap_mode="r" if mmap else None)
    if len(arrays["members"]) != int(meta.get("num_members", -1)):
        return None
    # the member set is fully determined by the contraction; a mismatch
    # means the sidecar belongs to a different index (e.g. one built with
    # contraction disabled on the same graph)
    root = np.asarray(contraction.root, dtype=np.int64)
    contracted = np.nonzero(root != np.arange(len(root), dtype=np.int64))[0]
    expected_members = np.unique(np.concatenate([contracted, root[contracted]]))
    if not np.array_equal(np.asarray(arrays["members"]), expected_members):
        return None
    return TreeDistanceResolver.from_state(
        np.asarray(contraction.dist_to_root, dtype=np.float64), arrays
    )


def _unpack_components(archive, header: dict) -> dict:
    """Everything in a (single or base) archive except the labels."""
    from repro.core.index import HC2LParameters

    graph = _unpack_graph(archive, "graph", int(header["graph_num_vertices"]))
    core = _unpack_graph(archive, "core", int(header["core_num_vertices"]))
    contraction = ContractedGraph(
        core=core,
        core_to_original=archive["con_core_to_original"].tolist(),
        original_to_core=archive["con_original_to_core"].tolist(),
        root=archive["con_root"].tolist(),
        parent=archive["con_parent"].tolist(),
        dist_to_parent=archive["con_dist_to_parent"].tolist(),
        dist_to_root=archive["con_dist_to_root"].tolist(),
        depth=archive["con_depth"].tolist(),
        num_original=int(header["num_original"]),
    )

    hierarchy = _unpack_hierarchy(archive, core.num_vertices)

    stats_header = header["stats"]
    stats = ConstructionStats(
        timer=Timer(durations=dict(stats_header["timer"])),
        num_nodes=int(stats_header["num_nodes"]),
        num_leaves=int(stats_header["num_leaves"]),
        num_shortcuts=int(stats_header["num_shortcuts"]),
        num_empty_cuts=int(stats_header["num_empty_cuts"]),
        max_depth=int(stats_header["max_depth"]),
    )

    # older archives stored ``num_workers: 0`` for sequential builds;
    # HC2LParameters now requires >= 1, so normalise legacy headers on
    # the way in
    parameters = dict(header["parameters"])
    if int(parameters.get("num_workers", 1)) < 1:
        parameters["num_workers"] = 1
    # the retired bucket-queue backend: its labels were bit-identical to
    # every other backend's, so any relabel may run on the default
    if parameters.get("backend") == "dial":
        parameters["backend"] = "auto"
    # the retired execution-mode switch: every build now runs the same
    # recursion, so the recorded mode has nothing left to select
    parameters.pop("parallel_mode", None)

    return {
        "graph": graph,
        "parameters": HC2LParameters(**parameters),
        "contraction": contraction,
        "hierarchy": hierarchy,
        "stats": stats,
        "construction_seconds": float(header["construction_seconds"]),
        "extra": {k: float(v) for k, v in header["extra"].items()},
    }


def _unpack_index(
    archive, header: dict, path: Union[str, Path, None] = None, mmap_labels: bool = False
) -> "HC2LIndex":
    from repro.core.index import HC2LIndex

    components = _unpack_components(archive, header)

    if mmap_labels:
        if path is None:
            raise ValueError("mmap_labels requires the archive path")
        label_arrays = mmap_label_arrays(path)
    else:
        label_arrays = {name: archive[name] for name in LABEL_ARRAY_NAMES}
    flat = FlatLabelling(
        num_vertices=components["contraction"].core.num_vertices,
        values=label_arrays["label_values"],
        level_indptr=label_arrays["label_level_indptr"],
        vertex_indptr=label_arrays["label_vertex_indptr"],
    )

    return HC2LIndex(flat=flat, **components)


def _unpack_hierarchy(archive, num_vertices: int) -> BalancedTreeHierarchy:
    hierarchy = BalancedTreeHierarchy(num_vertices)
    depths = archive["hier_node_depth"].tolist()
    parents = archive["hier_node_parent"].tolist()
    lefts = archive["hier_node_left"].tolist()
    rights = archive["hier_node_right"].tolist()
    subtrees = archive["hier_node_subtree"].tolist()
    is_leafs = archive["hier_node_is_leaf"].tolist()
    cut_values = archive["hier_cut_values"].tolist()
    cut_indptr = archive["hier_cut_indptr"].tolist()
    bits_bytes = archive["hier_node_bits"].tobytes()
    bits_indptr = archive["hier_node_bits_indptr"].tolist()

    for i in range(len(depths)):
        bits = int.from_bytes(bits_bytes[bits_indptr[i] : bits_indptr[i + 1]], "big")
        hierarchy.nodes.append(
            TreeNode(
                index=i,
                depth=depths[i],
                bits=bits,
                cut=cut_values[cut_indptr[i] : cut_indptr[i + 1]],
                parent=None if parents[i] < 0 else parents[i],
                left=None if lefts[i] < 0 else lefts[i],
                right=None if rights[i] < 0 else rights[i],
                subtree_size=subtrees[i],
                is_leaf=bool(is_leafs[i]),
            )
        )

    hierarchy.vertex_node = archive["hier_vertex_node"].tolist()
    for v, node_index in enumerate(hierarchy.vertex_node):
        if node_index >= 0:
            node = hierarchy.nodes[node_index]
            hierarchy.vertex_depth[v] = node.depth
            hierarchy.vertex_bits[v] = node.bits

    if "hier_core_position" in archive.files:  # version >= 3
        range_lo = archive["hier_node_range_lo"].tolist()
        range_hi = archive["hier_node_range_hi"].tolist()
        for node, lo, hi in zip(hierarchy.nodes, range_lo, range_hi):
            node.range_lo = lo
            node.range_hi = hi
        hierarchy.set_core_positions(archive["hier_core_position"].tolist())
    # older archives: subtree_ranges() recomputes the walk on first use
    return hierarchy


# --------------------------------------------------------------------- #
# sharded layout
# --------------------------------------------------------------------- #
def shard_directory(path: Union[str, Path]) -> Path:
    """The ``<path>.shards/`` directory of an index path.

    Accepts either the index path itself (``index.npz`` ->
    ``index.npz.shards``) or the layout directory directly.
    """
    path = Path(path)
    if path.name.endswith(".shards"):
        return path
    return Path(str(path) + ".shards")


def _generation_filename(stem: str, generation: int) -> str:
    """``stem.npz`` at generation 0, ``stem.gN.npz`` at generation N."""
    return f"{stem}.npz" if generation == 0 else f"{stem}.g{generation}.npz"


def save_index_sharded(
    index: "HC2LIndex",
    path: Union[str, Path],
    num_shards: int = 2,
    boundaries: Union[str, Sequence[int], None] = None,
    generation: Optional[int] = None,
) -> Path:
    """Write ``index`` as a sharded layout under ``<path>.shards/``.

    The label buffers are partitioned by *core* vertex range into
    ``num_shards`` self-contained shard archives; everything else (graph,
    contraction, hierarchy, header) goes into one small ``base.npz``.
    Returns the layout directory.  Shards reuse the single-archive label
    member names, so :func:`mmap_label_arrays` maps each shard's buffers
    read-only with the existing sidecar machinery.

    ``boundaries`` selects the layout:

    * ``None`` or ``"even"`` - split the core id range evenly;
    * ``"hierarchy"`` - store the labels in the hierarchy's DFS order and
      split along subtree edges derived from the top cuts
      (:func:`repro.hierarchy.tree.derive_shard_boundaries`), so
      subtree-local query traffic stays inside one shard;
    * an explicit edge sequence ``[0, ..., core_num_vertices]`` over core
      ids.

    ``generation`` is a monotonically increasing version counter recorded
    in the manifest for hot-swap serving
    (:meth:`repro.serving.shards.ShardRouter.reload_generation`).  With
    ``generation=None`` the writer bumps the generation of any manifest
    already present at the layout (a fresh layout starts at 0); the
    manifest's atomic tmp+rename means readers see either the old complete
    generation or the new one, never a torn mix: each generation writes
    its own file names, so the old generation's files stay intact until
    the new manifest replaces the old one.
    """
    from repro.hierarchy.tree import derive_shard_boundaries

    if generation is None:
        generation = 0
        existing = shard_directory(path) / MANIFEST_FILENAME
        if existing.exists():
            try:
                previous = json.loads(existing.read_text(encoding="utf-8"))
                generation = int(previous.get("generation", 0)) + 1
            except (ValueError, TypeError, json.JSONDecodeError):
                pass  # corrupt manifest: restart the counter at 0
    generation = int(generation)
    if generation < 0:
        raise ValueError(f"generation must be non-negative, got {generation}")

    flat = index.flat_labelling()
    vertex_order = "identity"
    if boundaries is None or (isinstance(boundaries, str) and boundaries == "even"):
        boundaries = FlatLabelling.even_boundaries(flat.num_vertices, num_shards)
    elif isinstance(boundaries, str):
        if boundaries != "hierarchy":
            raise ValueError(
                f"unknown boundaries mode {boundaries!r}; expected 'even', "
                f"'hierarchy' or an explicit edge sequence"
            )
        boundaries, order = derive_shard_boundaries(index.hierarchy, num_shards)
        flat = flat.reorder(order)
        vertex_order = "hierarchy"
    parts = flat.partition(boundaries)

    shard_dir = shard_directory(path)
    shard_dir.mkdir(parents=True, exist_ok=True)
    base_name = _generation_filename("base", generation)
    _write_npz(shard_dir / base_name, _base_arrays(index, label_layout="sharded"))

    edges = [int(b) for b in boundaries]
    shards: List[dict] = []
    for k, part in enumerate(parts):
        filename = _generation_filename(f"shard-{k:04d}", generation)
        _write_npz(
            shard_dir / filename,
            {
                "label_values": part.values,
                "label_level_indptr": part.level_indptr,
                "label_vertex_indptr": part.vertex_indptr,
            },
        )
        shards.append(
            {
                "file": filename,
                "lo": edges[k],
                "hi": edges[k + 1],
                "num_vertices": part.num_vertices,
                "num_levels": len(part.level_indptr) - 1,
                "num_entries": part.total_entries(),
            }
        )

    manifest = {
        "format": SHARDED_FORMAT_NAME,
        "version": SHARDED_FORMAT_VERSION,
        "base": base_name,
        "generation": generation,
        "core_num_vertices": flat.num_vertices,
        "num_original": index.contraction.num_original,
        # boundaries are positions in `vertex_order` space: core ids for
        # "identity", hierarchy DFS positions for "hierarchy"
        "vertex_order": vertex_order,
        "boundaries": edges,
        "shards": shards,
    }
    manifest_path = shard_dir / MANIFEST_FILENAME
    temporary = shard_dir / f".{MANIFEST_FILENAME}.{os.getpid()}.tmp"
    temporary.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    os.replace(temporary, manifest_path)  # readers never see a torn manifest

    # the previous generation (and, after a re-shard, any shard index the
    # new layout no longer has) is orphaned now; drop every archive - and
    # its label-sized mmap sidecar directory - the new manifest does not
    # reference
    current = {shard["file"] for shard in shards} | {base_name}
    for stale in [*shard_dir.glob("shard-*.npz"), *shard_dir.glob("base*.npz")]:
        if stale.name not in current:
            stale.unlink(missing_ok=True)
    for sidecar in shard_dir.glob("shard-*.npz.mmap"):
        if sidecar.name[: -len(".mmap")] not in current:
            # a reader still pinned to the old manifest may be extracting
            # into it; that reader fails over to the new generation, and
            # whatever it leaves behind goes with the next publish
            shutil.rmtree(sidecar, ignore_errors=True)
    return shard_dir


def load_manifest(path: Union[str, Path]) -> Tuple[Path, dict]:
    """Read + validate the manifest of a sharded layout.

    ``path`` may be the original index path, the layout directory or the
    manifest file itself.  Returns ``(layout_directory, manifest)``.
    """
    path = Path(path)
    if path.name == MANIFEST_FILENAME:
        shard_dir = path.parent
    else:
        shard_dir = shard_directory(path)
    manifest_path = shard_dir / MANIFEST_FILENAME
    if not manifest_path.exists():
        raise ValueError(
            f"{shard_dir} is not a sharded index layout (no {MANIFEST_FILENAME}); "
            f"create one with save_index_sharded or 'repro shard'"
        )
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format") != SHARDED_FORMAT_NAME:
        raise ValueError(
            f"{manifest_path} has format {manifest.get('format')!r}, "
            f"expected {SHARDED_FORMAT_NAME!r}"
        )
    if manifest.get("version") not in SUPPORTED_SHARDED_VERSIONS:
        raise ValueError(
            f"{manifest_path} has manifest version {manifest.get('version')!r}; "
            f"this build reads versions {list(SUPPORTED_SHARDED_VERSIONS)}"
        )
    if manifest.setdefault("vertex_order", "identity") not in VERTEX_ORDERS:
        raise ValueError(
            f"{manifest_path} has vertex_order {manifest['vertex_order']!r}; "
            f"this build reads {list(VERTEX_ORDERS)}"
        )
    # pre-generation manifests load as generation 0
    generation = manifest.setdefault("generation", 0)
    if not isinstance(generation, int) or generation < 0:
        raise ValueError(
            f"{manifest_path} has generation {generation!r}; "
            f"expected a non-negative integer"
        )
    edges = manifest.get("boundaries", [])
    if len(edges) != len(manifest.get("shards", [])) + 1:
        raise ValueError(f"{manifest_path} boundaries do not match its shard list")
    return shard_dir, manifest


def load_shard(
    path: Union[str, Path],
    shard_id: int,
    mmap: bool = False,
    manifest: Optional[dict] = None,
) -> FlatLabelling:
    """Load one shard's labelling (local vertex ids, re-based buffers).

    With ``mmap=True`` the buffers are extracted into per-shard ``.npy``
    sidecars (``shard-NNNN.npz.mmap/``) and mapped read-only, so every
    worker serving the shard shares one physical copy.  A caller pinned
    to a ``manifest`` it read earlier passes it, and gets that
    generation's shard (or ``FileNotFoundError`` once it is deleted),
    never a newer one written since.
    """
    if manifest is None:
        shard_dir, manifest = load_manifest(path)
    else:
        shard_dir = shard_directory(path)
    shards = manifest["shards"]
    if not 0 <= shard_id < len(shards):
        raise ValueError(f"shard {shard_id} out of range; layout has {len(shards)} shards")
    shard_path = shard_dir / shards[shard_id]["file"]
    if mmap:
        label_arrays = mmap_label_arrays(shard_path)
    else:
        with np.load(shard_path, allow_pickle=False) as archive:
            label_arrays = {name: archive[name] for name in LABEL_ARRAY_NAMES}
    return FlatLabelling(
        num_vertices=int(shards[shard_id]["num_vertices"]),
        values=label_arrays["label_values"],
        level_indptr=label_arrays["label_level_indptr"],
        vertex_indptr=label_arrays["label_vertex_indptr"],
    )


def load_sharded_components(path: Union[str, Path]) -> Tuple[dict, dict, Path]:
    """Load the label-free base of a sharded layout.

    Returns ``(components, manifest, layout_directory)`` where
    ``components`` holds graph / contraction / hierarchy / stats /
    parameters - everything a :class:`~repro.serving.shards.ShardRouter`
    needs besides the lazily-loaded shard labellings.
    """
    shard_dir, manifest = load_manifest(path)
    base_path = shard_dir / manifest["base"]
    with np.load(base_path, allow_pickle=False) as archive:
        header = _validate_header(archive, base_path)
        components = _unpack_components(archive, header)
    expected = components["contraction"].core.num_vertices
    if int(manifest["core_num_vertices"]) != expected:
        raise ValueError(
            f"{shard_dir} manifest covers {manifest['core_num_vertices']} core "
            f"vertices but the base archive has {expected}"
        )
    return components, manifest, shard_dir


def load_index_sharded(path: Union[str, Path]) -> "HC2LIndex":
    """Reassemble a full :class:`HC2LIndex` from a sharded layout.

    Concatenates every shard back into one monolithic labelling
    (:meth:`FlatLabelling.concat` is the lossless inverse of the
    partition) - the migration path back from a sharded deployment, and
    the round-trip guarantee the format tests pin down.  The result is an
    owned in-memory copy; for shared-page serving over the layout use
    :class:`~repro.serving.shards.ShardRouter` instead, which maps each
    shard read-only.
    """
    from repro.core.index import HC2LIndex

    components, manifest, _ = load_sharded_components(path)
    parts = [load_shard(path, k, manifest=manifest) for k in range(len(manifest["shards"]))]
    flat = FlatLabelling.concat(parts)
    if manifest["vertex_order"] == "hierarchy":
        # position p of the concatenation holds the labels of the vertex at
        # DFS position p; gathering through the position array restores the
        # core-id order losslessly
        flat = flat.reorder(components["hierarchy"].subtree_ranges())
    return HC2LIndex(flat=flat, **components)
