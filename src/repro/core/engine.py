"""Batch query engine over flat HC2L label storage.

:class:`QueryEngine` is the query-side counterpart of
:class:`~repro.core.flat.FlatLabelling`: it resolves degree-one
contraction, LCA depth and the min-plus label scan either one pair at a
time (:meth:`distance`, over Python lists with no per-call numpy
overhead) or for whole batches at once (:meth:`distances`,
:meth:`one_to_many`), where the contraction bookkeeping, the bitstring
LCA of Section 4.3 and the min-plus reduction are all vectorised over the
contiguous distance buffer.

The graph-level half of the batch path - input coercion, range
validation, contraction resolution and the vectorised LCA - lives in
:class:`BatchResolver` so it is shared with oracles that gather labels
from a *different* store, in particular the
:class:`~repro.serving.shards.ShardRouter` fanning one batch out over
several label shards.

Both paths perform exactly the same float64 additions and minima as the
original per-pair implementation, so batch results are bit-identical to
the scalar ones - the tests assert ``==``, not ``approx``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.flat import FlatLabelling
from repro.core.oracle import as_pair_array, pairs_from_source
from repro.core.oracle import as_vertex_ids as _as_vertex_ids
from repro.core.tree_resolve import TreeDistanceResolver
from repro.graph.contraction import ContractedGraph
from repro.hierarchy.tree import BalancedTreeHierarchy
from repro.utils.validation import check_vertex

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.index import HC2LIndex

INF = float("inf")

#: Deeper hierarchies than this have path bitstrings that float64 cannot
#: hold exactly, so the vectorised LCA (which reads ``bit_length`` as a
#: float64 exponent) falls back to scalar code.
_MAX_VECTOR_DEPTH = 53


class BatchResolver:
    """Vectorised contraction + LCA bookkeeping for a pair batch.

    Owns the graph-level state a batched HC2L query needs *before* any
    label array is touched: per-vertex attachment roots and root
    distances, the root's core id, and the bitstring LCA of Section 4.3.
    :meth:`distances` runs a whole batch around the caller's min-plus.
    :class:`QueryEngine` delegates to it for the monolithic labelling;
    :class:`~repro.serving.shards.ShardRouter` reuses it unchanged over a
    partitioned label store.
    """

    def __init__(self, contraction: ContractedGraph, hierarchy: BalancedTreeHierarchy) -> None:
        self.contraction = contraction
        self.hierarchy = hierarchy
        self._root = np.asarray(contraction.root, dtype=np.int64)
        self._dist_to_root = np.asarray(contraction.dist_to_root, dtype=np.float64)
        self._tree_resolver: Optional[TreeDistanceResolver] = None
        # guards the lazy Euler-tour build: the resolver is shared by the
        # ShardRouter, whose distances() is documented safe for concurrent
        # callers, and the build walks every contracted vertex
        self._tree_resolver_lock = threading.Lock()
        original_to_core = np.asarray(contraction.original_to_core, dtype=np.int64)
        #: core id of each original vertex's attachment root
        self._root_core = original_to_core[self._root]
        self._vertex_depth = np.asarray(hierarchy.vertex_depth, dtype=np.int64)
        max_depth = int(self._vertex_depth.max()) if len(self._vertex_depth) else 0
        self._vector_lca = max_depth <= _MAX_VECTOR_DEPTH
        if self._vector_lca:
            self._vertex_bits = np.asarray(hierarchy.vertex_bits, dtype=np.int64)
        else:
            self._vertex_bits = None

    def __getstate__(self) -> dict:
        """Drop the (unpicklable) lock; legacy pickle support only."""
        state = self.__dict__.copy()
        del state["_tree_resolver_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._tree_resolver_lock = threading.Lock()

    def distances(
        self,
        pairs: Sequence[Tuple[int, int]],
        core_distances: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Answer a pair batch: coerce, validate, resolve, then fill.

        ``core_distances(cs, ct)`` returns a fresh ``float64`` array of
        core-graph distances between core ids (0 where they are equal);
        the label store behind it is the caller's.  Every pair gets its
        root offsets added to that, then the pairs :meth:`resolve` answered
        inside the attachment trees are overwritten.
        """
        pair_array = as_pair_array(pairs)
        if pair_array.size == 0:
            return np.empty(0, dtype=np.float64)
        s = np.ascontiguousarray(pair_array[:, 0])
        t = np.ascontiguousarray(pair_array[:, 1])
        self.validate_vertices(s, t)
        cs, ct, offsets, fixed, answers = self.resolve(s, t)
        out = core_distances(cs, ct)
        out += offsets
        out[fixed] = answers
        return out

    def validate_vertices(self, s: np.ndarray, t: np.ndarray) -> None:
        """Range-check both endpoint arrays (original vertex ids)."""
        n = self.contraction.num_original
        if s.size and (int(min(s.min(), t.min())) < 0 or int(max(s.max(), t.max())) >= n):
            bad = next(
                int(v) for v in np.concatenate([s, t]) if v < 0 or v >= n
            )
            raise ValueError(f"vertex {bad} is out of range for a graph with {n} vertices")

    def resolve(
        self, s: np.ndarray, t: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Resolve the contraction bookkeeping of a validated pair batch.

        Returns ``(cs, ct, offsets, fixed, answers)`` covering *every*
        pair: the core ids of both attachment roots and the sum of both
        root distances, so ``offsets + core distance`` answers a pair
        whose roots differ.  The pairs at the indices ``fixed`` share a
        root (identical endpoints, or one attachment tree; their ``cs``
        and ``ct`` are equal) and are answered by ``answers`` instead.
        """
        cs = self._root_core[s]
        ct = self._root_core[t]
        offsets = self._dist_to_root[s]
        offsets += self._dist_to_root[t]
        # roots are core vertices, so equal root core ids mean a shared root
        fixed = np.flatnonzero(cs == ct)
        answers = np.zeros(len(fixed), dtype=np.float64)
        if len(fixed):
            fixed_s = s[fixed]
            fixed_t = t[fixed]
            tree = fixed_s != fixed_t
            if tree.any():
                # both endpoints hang off the same attachment tree: answered
                # by the Euler-tour RMQ resolver (vectorised; bit-identical
                # to the scalar tree_lca_distance walk)
                answers[tree] = self.tree_resolver.distances(fixed_s[tree], fixed_t[tree])
        return cs, ct, offsets, fixed, answers

    def attach_tree_resolver(self, resolver: TreeDistanceResolver) -> None:
        """Install a pre-built (e.g. sidecar-loaded) Euler-tour resolver.

        Serving processes that load the persisted tour sidecar skip the
        lazy per-process rebuild; answers are bit-identical either way.
        """
        with self._tree_resolver_lock:
            self._tree_resolver = resolver

    @property
    def tree_resolver(self) -> TreeDistanceResolver:
        """The Euler-tour LCA structure over the attachment trees.

        Built lazily on the first batch that actually contains a same-root
        pair, so engines serving core-only workloads pay nothing.
        """
        resolver = self._tree_resolver
        if resolver is None:
            with self._tree_resolver_lock:
                resolver = self._tree_resolver
                if resolver is None:  # still unbuilt: this thread builds it
                    contraction = self.contraction
                    resolver = TreeDistanceResolver(
                        parent=np.asarray(contraction.parent, dtype=np.int64),
                        depth=np.asarray(contraction.depth, dtype=np.int64),
                        root=self._root,
                        dist_to_root=self._dist_to_root,
                    )
                    self._tree_resolver = resolver
        return resolver

    def lca_depths(self, cs: np.ndarray, ct: np.ndarray) -> np.ndarray:
        """Vectorised Section 4.3 LCA depth (common bitstring prefix length)."""
        if not self._vector_lca:
            lca_depth = self.hierarchy.lca_depth
            return np.asarray(
                [lca_depth(int(a), int(b)) for a, b in zip(cs, ct)], dtype=np.int64
            )
        depth_u = self._vertex_depth[cs]
        depth_v = self._vertex_depth[ct]
        common = np.minimum(depth_u, depth_v)
        depth_u -= common
        depth_v -= common
        diff = self._vertex_bits[cs] >> depth_u
        diff ^= self._vertex_bits[ct] >> depth_v
        # below 2**53 the float64 conversion is exact, so the binary
        # exponent frexp returns is int.bit_length (0 for 0: no branch)
        common -= np.frexp(diff.astype(np.float64))[1]
        return common


class QueryEngine:
    """Answers exact distance queries over flat label buffers.

    Parameters
    ----------
    contraction:
        The degree-one contraction of the indexed graph (original-id to
        core-id bookkeeping plus attachment trees).
    hierarchy:
        The balanced tree hierarchy over the core graph.
    flat:
        The flat label storage for the core graph.
    """

    def __init__(
        self,
        contraction: ContractedGraph,
        hierarchy: BalancedTreeHierarchy,
        flat: FlatLabelling,
    ) -> None:
        self.contraction = contraction
        self.hierarchy = hierarchy
        self.flat = flat

        # scalar-path state: plain Python lists (fastest per-pair access).
        # Materialised lazily on the first scalar query so a batch-only
        # serving process holds the labels exactly once (the flat buffers).
        self._values_list: Optional[List[float]] = None
        self._level_indptr_list: Optional[List[int]] = None
        self._vertex_indptr_list: Optional[List[int]] = None

        # batch-path state: numpy views/arrays + the shared graph-level
        # resolver (contraction bookkeeping, vectorised LCA)
        self._values = flat.values
        self._level_indptr = flat.level_indptr
        self._vertex_indptr = flat.vertex_indptr
        self.resolver = BatchResolver(contraction, hierarchy)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_index(cls, index: "HC2LIndex") -> "QueryEngine":
        """Build an engine for a constructed :class:`HC2LIndex`."""
        return cls(index.contraction, index.hierarchy, index.flat_labelling())

    @property
    def num_vertices(self) -> int:
        """Number of (original) vertices the engine answers queries for."""
        return self.contraction.num_original

    # ------------------------------------------------------------------ #
    # scalar path
    # ------------------------------------------------------------------ #
    def distance(self, s: int, t: int) -> float:
        """Exact distance between ``s`` and ``t`` (original ids)."""
        n = self.contraction.num_original
        check_vertex(s, n, "s")
        check_vertex(t, n, "t")
        resolved, core_s, core_t, offset = self.contraction.resolve_query(s, t)
        if resolved is not None:
            return resolved
        return offset + self._core_distance(core_s, core_t)

    def _ensure_scalar_state(self) -> None:
        """Build the Python-list mirror the per-pair path iterates over.

        ``_values_list`` is assigned *last*: concurrent scalar queries gate
        on it, so the indptr lists must already be visible by then.
        """
        if self._values_list is None:
            self._level_indptr_list = self.flat.level_indptr.tolist()
            self._vertex_indptr_list = self.flat.vertex_indptr.tolist()
            self._values_list = self.flat.values.tolist()

    def _core_distance(self, s: int, t: int) -> float:
        """Min-plus scan over the flat buffer for two core vertices."""
        if s == t:
            return 0.0
        if self._values_list is None:
            self._ensure_scalar_state()
        depth = self.hierarchy.lca_depth(s, t)
        level_indptr = self._level_indptr_list
        k_s = self._vertex_indptr_list[s] + depth
        k_t = self._vertex_indptr_list[t] + depth
        start_s = level_indptr[k_s]
        start_t = level_indptr[k_t]
        length = min(level_indptr[k_s + 1] - start_s, level_indptr[k_t + 1] - start_t)
        values = self._values_list
        best = INF
        for i in range(length):
            candidate = values[start_s + i] + values[start_t + i]
            if candidate < best:
                best = candidate
        return best

    # ------------------------------------------------------------------ #
    # batch path
    # ------------------------------------------------------------------ #
    def distances(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Exact distances for a batch of ``(s, t)`` pairs (vectorised).

        Returns a ``float64`` array aligned with ``pairs``; disconnected
        pairs get ``inf``.  Results are bit-identical to calling
        :meth:`distance` per pair.
        """
        return self.resolver.distances(pairs, self._core_distances)

    def one_to_many(self, s: int, targets: Sequence[int]) -> np.ndarray:
        """Distances from ``s`` to every vertex in ``targets`` (batched)."""
        if isinstance(s, np.integer):
            s = int(s)  # numpy ints are fine; floats still fail check_vertex
        check_vertex(s, self.contraction.num_original, "s")
        return self.distances(pairs_from_source(s, targets))

    def many_to_many(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """The ``len(sources) x len(targets)`` distance matrix (batched)."""
        source_array = _as_vertex_ids(np.asarray(sources), "sources")
        target_array = _as_vertex_ids(np.asarray(targets), "targets")
        pairs = np.empty((len(source_array) * len(target_array), 2), dtype=np.int64)
        pairs[:, 0] = np.repeat(source_array, len(target_array))
        pairs[:, 1] = np.tile(target_array, len(source_array))
        return self.distances(pairs).reshape(len(source_array), len(target_array))

    # ------------------------------------------------------------------ #
    def _core_distances(self, cs: np.ndarray, ct: np.ndarray) -> np.ndarray:
        """Vectorised min-plus for arrays of core vertex pairs (cs == ct gives 0)."""
        depth = self.resolver.lca_depths(cs, ct)

        k_s = self._vertex_indptr[cs] + depth
        k_t = self._vertex_indptr[ct] + depth
        start_s = self._level_indptr[k_s]
        start_t = self._level_indptr[k_t]
        lengths = np.minimum(
            self._level_indptr[k_s + 1] - start_s,
            self._level_indptr[k_t + 1] - start_t,
        )

        result = np.full(len(cs), INF, dtype=np.float64)
        equal = cs == ct
        result[equal] = 0.0
        lengths[equal] = 0

        total = int(lengths.sum())
        if total == 0:
            return result

        # Grouped gather: for pair p with shared prefix length L_p, generate
        # flat indices start[p] .. start[p] + L_p - 1 for both sides, as
        # repeat(start - group_start) + arange(total).
        group_starts = np.cumsum(lengths) - lengths
        positions = np.arange(total, dtype=np.int64)
        idx_s = np.repeat(start_s - group_starts, lengths)
        idx_s += positions
        idx_t = np.repeat(start_t - group_starts, lengths)
        idx_t += positions
        sums = self._values[idx_s]
        sums += self._values[idx_t]

        nonempty = lengths > 0
        result[nonempty] = np.minimum.reduceat(sums, group_starts[nonempty])
        return result
