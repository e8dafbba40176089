"""Shard-routed serving over a partitioned label store.

A monolithic :class:`~repro.core.flat.FlatLabelling` caps a deployment at
one process and one memory budget.  The sharded on-disk layout
(:func:`repro.core.persistence.save_index_sharded`) partitions the label
buffers by core vertex range; :class:`ShardRouter` serves queries over
that layout:

* shards are **mmap-loaded lazily** - a worker touching only part of the
  vertex space maps only those shards, and co-located workers mapping the
  same shard share one physical copy through the page cache;
* batches are **split by the shard owning each source vertex**, fanned
  out as one vectorised min-plus call per source shard (targets are
  gathered per-shard inside the call), and re-assembled in input order;
* the graph-level half of a query - contraction bookkeeping and the
  bitstring LCA - reuses the engine's
  :class:`~repro.core.engine.BatchResolver` unchanged.

The router implements the full :class:`~repro.core.oracle.DistanceOracle`
protocol and returns **bit-identical** answers to the monolithic
:class:`~repro.core.engine.QueryEngine`: the fan-out performs exactly the
same float64 additions and minima, only gathered from per-shard buffers.
It therefore composes under :class:`~repro.serving.cache.CachingOracle`
and :class:`~repro.serving.coalesce.CoalescingServer` with zero changes
to either.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.core.engine import BatchResolver
from repro.core.flat import FlatLabelling
from repro.core.oracle import BatchMixin, pairs_from_source
from repro.core.persistence import load_manifest, load_shard, load_sharded_components
from repro.core.query import min_plus_prefix
from repro.utils.validation import check_vertex

INF = float("inf")


@dataclass
class RouterStats:
    """Routing accounting for one :class:`ShardRouter`."""

    batches: int = 0
    core_pairs: int = 0
    cross_shard_pairs: int = 0
    fanout_calls: int = 0
    shard_loads: int = 0
    reloads: int = 0
    pairs_per_shard: Dict[int, int] = field(default_factory=dict)

    def cross_shard_fraction(self) -> float:
        """Fraction of core pairs whose endpoints live in different shards.

        The locality metric the shard layouts compete on: hierarchy-aligned
        boundaries exist to push this down for subtree-local traffic.
        """
        if self.core_pairs == 0:
            return 0.0
        return self.cross_shard_pairs / self.core_pairs

    def as_dict(self) -> Dict[str, float]:
        """Flatten for benchmark/report rows."""
        return {
            "batches": self.batches,
            "core_pairs": self.core_pairs,
            "cross_shard_pairs": self.cross_shard_pairs,
            "cross_shard_fraction": round(self.cross_shard_fraction(), 4),
            "fanout_calls": self.fanout_calls,
            "shard_loads": self.shard_loads,
            "reloads": self.reloads,
        }


T = TypeVar("T")


class GenerationMoved(RuntimeError):
    """A shard load found the layout on disk at another generation than the
    router serves; :meth:`ShardRouter.reload_generation` adopts it."""


class ShardRouter(BatchMixin):
    """A :class:`DistanceOracle` over a sharded on-disk label layout.

    Parameters
    ----------
    path:
        The index path, its ``<path>.shards/`` layout directory, or the
        ``manifest.json`` inside it.
    mmap:
        Map each shard's label buffers read-only from ``.npy`` sidecars
        (the default; co-located workers share pages) instead of copying
        them into the process.
    preload:
        Load every shard eagerly instead of on first touch.
    """

    def __init__(
        self, path: Union[str, Path], mmap: bool = True, preload: bool = False
    ) -> None:
        components, manifest, shard_dir = load_sharded_components(path)
        self.path = shard_dir
        self._mmap = mmap
        self.stats = RouterStats()
        # guards lazy shard loading and the stats counters: the router is
        # documented to sit under the thread-based CoalescingServer, so
        # concurrent distances() calls must not double-load a shard or
        # lose counter increments (the numpy reads themselves are safe)
        self._lock = threading.Lock()
        # hot-swap coordination: queries register in _active between
        # _begin_query/_end_query; reload_generation raises _reloading,
        # waits on _swap for the in-flight count to drain, flips every
        # generation-dependent field, then wakes the queries queued behind
        # the swap - no request is ever dropped, only briefly delayed
        self._swap = threading.Condition(self._lock)
        self._active = 0
        self._reloading = False
        self._closed = False
        self._adopt(components, manifest)
        if preload:
            for shard_id in range(self.num_shards):
                self._shard(shard_id)

    def _adopt(self, components: dict, manifest: dict) -> None:
        """Point the router at one generation's components (caller holds the
        lock when swapping a live router; construction runs unlocked)."""
        self.manifest = manifest
        self.graph = components["graph"]
        self.parameters = components["parameters"]
        self.contraction = components["contraction"]
        self.hierarchy = components["hierarchy"]
        self.construction_seconds = components["construction_seconds"]
        self.resolver = BatchResolver(self.contraction, self.hierarchy)
        #: how label rows are ordered on disk: "identity" (classic core-id
        #: ranges) or "hierarchy" (DFS subtree ranges)
        self.vertex_order: str = manifest.get("vertex_order", "identity")
        if self.vertex_order == "hierarchy":
            # storage position of each core vertex; the base archive of a
            # hierarchy layout persists the DFS walk, so these are exactly
            # the positions the labels were reordered by at save time
            self._position: Optional[np.ndarray] = np.asarray(
                self.hierarchy.subtree_ranges(), dtype=np.int64
            )
        else:
            self._position = None
        #: shard edge sequence over storage positions ([0, b1, ..., m])
        self._edges = np.asarray(manifest["boundaries"], dtype=np.int64)
        self._shards: List[Optional[FlatLabelling]] = [None] * (len(self._edges) - 1)

    # ------------------------------------------------------------------ #
    # shard management
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """Number of shards in the layout."""
        return len(self._shards)

    @property
    def loaded_shard_ids(self) -> List[int]:
        """Ids of the shards this router has loaded so far."""
        return [k for k, shard in enumerate(self._shards) if shard is not None]

    @property
    def generation(self) -> int:
        """Generation of the layout this router is currently serving."""
        return int(self.manifest.get("generation", 0))

    def reload_generation(self) -> int:
        """Hot-swap onto the generation currently on disk; returns it.

        Reads the new manifest and base components *outside* the router
        lock (the slow part), then drains in-flight batches off the old
        mmaps and flips every generation-dependent field - graph,
        contraction, hierarchy, resolver, boundaries, shard table -
        atomically behind the lock.  Queries arriving during the flip
        queue behind it instead of erroring; the old shard mappings are
        closed only after the swap, so the drained batches finished on a
        consistent snapshot.  Concurrent reloads serialise; a reload that
        finds no newer generation on disk (another caller swapped first,
        or it lost the race to a newer reload) is a no-op.
        """
        components, manifest, _ = load_sharded_components(self.path)
        with self._swap:
            while self._reloading:
                self._swap.wait()
            if self._closed:
                raise RuntimeError(f"ShardRouter over {self.path} is closed")
            if int(manifest.get("generation", 0)) <= self.generation:
                return self.generation  # nothing newer to adopt
            old_shards: List[Optional[FlatLabelling]] = []
            self._reloading = True
            try:
                while self._active > 0:  # drain in-flight batches
                    self._swap.wait()
                old_shards = self._shards
                self._adopt(components, manifest)
                self.stats.reloads += 1
            finally:
                self._reloading = False
                self._swap.notify_all()
        for shard in old_shards:
            if shard is not None:
                shard.close()
        return self.generation

    def _begin_query(self) -> None:
        with self._swap:
            while self._reloading:
                self._swap.wait()
            if self._closed:
                raise RuntimeError(f"ShardRouter over {self.path} is closed")
            self._active += 1

    def _end_query(self) -> None:
        with self._swap:
            self._active -= 1
            if self._active == 0:
                self._swap.notify_all()

    def close(self) -> None:
        """Release every loaded shard, closing mmap handles deterministically.

        Fleet workers recycle routers on restart; waiting for GC to drop
        the last reference keeps label files mapped (and on some platforms
        their descriptors open) for an unbounded time.  After ``close``
        the router raises ``RuntimeError`` on any further query.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            shards, self._shards = self._shards, [None] * self.num_shards
        for shard in shards:
            if shard is not None:
                shard.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _shard(self, shard_id: int) -> FlatLabelling:
        if self._closed:
            raise RuntimeError(f"ShardRouter over {self.path} is closed")
        shard = self._shards[shard_id]
        if shard is None:
            with self._lock:
                shard = self._shards[shard_id]
                if shard is not None:  # lost the race; another thread loaded it
                    return shard
                # the router's local-id arithmetic and label snapshot are
                # pinned to the manifest read at construction (or the last
                # reload); if the layout was re-sharded or a new generation
                # was written since, lazily loading a rewritten shard would
                # silently mix two generations - fail loudly instead
                _, manifest = load_manifest(self.path)
                if manifest["boundaries"] != self.manifest["boundaries"]:
                    raise RuntimeError(
                        f"{self.path} was re-sharded (boundaries "
                        f"{manifest['boundaries']} != {self.manifest['boundaries']}) "
                        f"since this router opened; re-open the ShardRouter"
                    )
                if int(manifest.get("generation", 0)) != self.generation:
                    raise GenerationMoved(
                        f"{self.path} moved to generation "
                        f"{manifest.get('generation', 0)} since this router "
                        f"adopted generation {self.generation}; call "
                        f"reload_generation() to hot-swap"
                    )
                # load through the pinned manifest: a newer generation has
                # its own file names, and deletes these only after its
                # manifest is in place
                try:
                    shard = load_shard(
                        self.path, shard_id, mmap=self._mmap, manifest=self.manifest
                    )
                except FileNotFoundError as error:
                    raise GenerationMoved(
                        f"{self.path} no longer holds {error.filename} of generation "
                        f"{self.generation}; call reload_generation() to hot-swap"
                    ) from error
                self._shards[shard_id] = shard
                self.stats.shard_loads += 1
        return shard

    def positions_of(self, core_vertices: np.ndarray) -> np.ndarray:
        """Storage position of each core vertex (identity unless the layout
        stores labels in hierarchy DFS order)."""
        if self._position is None:
            return core_vertices
        return self._position[core_vertices]

    def _shards_of_positions(self, positions: np.ndarray) -> np.ndarray:
        """Shard id owning each storage position (single home of the
        ``side='right'`` boundary convention)."""
        return np.searchsorted(self._edges, positions, side="right") - 1

    def shard_of(self, core_vertices: np.ndarray) -> np.ndarray:
        """Shard id owning each core vertex (vectorised range lookup)."""
        return self._shards_of_positions(self.positions_of(core_vertices))

    # ------------------------------------------------------------------ #
    # protocol metadata
    # ------------------------------------------------------------------ #
    @property
    def supports_batch(self) -> bool:
        """The fan-out performs the engine's vectorised min-plus per shard."""
        return True

    @property
    def index_size_bytes(self) -> int:
        """Total label bytes across shards plus contracted-vertex records.

        Computed from the manifest's per-shard sizes, so it matches the
        monolithic index without loading a single shard.
        """
        total = 0
        for shard in self.manifest["shards"]:
            total += (
                int(shard["num_entries"]) * 8
                + 2 * int(shard["num_levels"])
                + 8 * int(shard["num_vertices"])
            )
        return total + self.contraction.num_contracted * 16

    def label_size_bytes(self) -> int:
        """Alias for :attr:`index_size_bytes` (harness compatibility)."""
        return self.index_size_bytes

    # ------------------------------------------------------------------ #
    # scalar path
    # ------------------------------------------------------------------ #
    def distance(self, s: int, t: int) -> float:
        """Exact distance between ``s`` and ``t`` (original ids)."""
        return self.distance_with_hub_count(s, t)[0]

    def distance_with_hub_count(self, s: int, t: int) -> Tuple[float, int]:
        """Distance plus the number of label entries inspected."""
        return self._serve(lambda: self._scalar(s, t))

    def _serve(self, query: Callable[[], T]) -> T:
        """Run ``query`` on one generation, hot-swapping at most once.

        A lazy shard load that finds another generation on disk cannot
        finish on the generation this router pinned (a writer deletes the
        old files once its manifest is in place), so the router adopts
        the generation on disk and runs the whole query again there.
        Either way the answer comes from a single generation.
        """
        self._begin_query()
        try:
            return query()
        except GenerationMoved:
            pass
        finally:
            self._end_query()
        self.reload_generation()
        self._begin_query()
        try:
            return query()
        finally:
            self._end_query()

    def _scalar(self, s: int, t: int) -> Tuple[float, int]:
        n = self.contraction.num_original
        check_vertex(s, n, "s")
        check_vertex(t, n, "t")
        resolved, core_s, core_t, offset = self.contraction.resolve_query(s, t)
        if resolved is not None:
            return resolved, 0
        value, hubs = self._core_scalar(core_s, core_t)
        return offset + value, hubs

    def _core_scalar(self, core_s: int, core_t: int) -> Tuple[float, int]:
        """Min-plus over the (possibly distinct) shards of two core vertices."""
        depth = self.hierarchy.lca_depth(core_s, core_t)
        return min_plus_prefix(
            self._level_list(core_s, depth), self._level_list(core_t, depth)
        )

    def _level_list(self, core_vertex: int, depth: int) -> List[float]:
        position = self.positions_of(np.asarray([core_vertex], dtype=np.int64))
        shard_id = int(self._shards_of_positions(position)[0])
        local = int(position[0]) - int(self._edges[shard_id])
        return self._shard(shard_id).level_array(local, depth)

    # ------------------------------------------------------------------ #
    # batch path
    # ------------------------------------------------------------------ #
    def distances(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Exact distances for a batch of ``(s, t)`` pairs, fanned out by
        the shard owning each source vertex and re-assembled in input
        order; bit-identical to the monolithic engine.
        """
        out = self._serve(lambda: self.resolver.distances(pairs, self._core_distances))
        if len(out):
            with self._lock:
                self.stats.batches += 1
        return out

    def one_to_many(self, s: int, targets: Sequence[int]) -> np.ndarray:
        """Distances from ``s`` to every vertex of ``targets`` (one source
        shard, targets gathered per shard).

        Overrides the mixin only to range-check the source up front (like
        the engine does), even when ``targets`` is empty.
        """
        if isinstance(s, np.integer):
            s = int(s)
        check_vertex(s, self.contraction.num_original, "s")
        return self.distances(pairs_from_source(s, targets))

    # many_to_many: inherited from BatchMixin, which builds the pair grid
    # and evaluates it through the routed ``distances`` above.

    # ------------------------------------------------------------------ #
    def _core_distances(self, cs: np.ndarray, ct: np.ndarray) -> np.ndarray:
        """Route core pairs to per-source-shard fan-out calls."""
        result = np.full(len(cs), INF, dtype=np.float64)
        equal = cs == ct
        result[equal] = 0.0
        work = ~equal
        # pairs sharing an attachment root arrive with cs == ct and are
        # answered by the resolver, so only the rest count as core pairs
        core_pairs = int(work.sum())
        if not core_pairs:
            return result

        depth = self.resolver.lca_depths(cs, ct)
        # all storage arithmetic below runs on positions (== core ids for
        # the identity layout); the LCA above always uses core ids
        ps = self.positions_of(cs)
        pt = self.positions_of(ct)
        source_shard = self._shards_of_positions(ps)
        target_shard = self._shards_of_positions(pt)
        fanout_calls = 0
        pairs_per_shard: Dict[int, int] = {}
        for shard_id in np.unique(source_shard[work]).tolist():
            mask = work & (source_shard == shard_id)
            result[mask] = self._fanout(
                int(shard_id), ps[mask], pt[mask], target_shard[mask], depth[mask]
            )
            fanout_calls += 1
            pairs_per_shard[int(shard_id)] = int(mask.sum())
        with self._lock:
            stats = self.stats
            stats.core_pairs += core_pairs
            stats.cross_shard_pairs += int((source_shard[work] != target_shard[work]).sum())
            stats.fanout_calls += fanout_calls
            for shard_id, count in pairs_per_shard.items():
                stats.pairs_per_shard[shard_id] = (
                    stats.pairs_per_shard.get(shard_id, 0) + count
                )
        return result

    def _fanout(
        self,
        source_shard_id: int,
        ps: np.ndarray,
        pt: np.ndarray,
        target_shard: np.ndarray,
        depth: np.ndarray,
    ) -> np.ndarray:
        """One vectorised min-plus call for the pairs of one source shard.

        ``ps`` / ``pt`` are storage positions (core ids under the identity
        layout, DFS positions under the hierarchy layout).  The source
        side gathers from a single shard buffer; the target side is
        gathered per target shard (cross-shard pairs are the point of the
        router).  Performs exactly the engine's grouped gather +
        ``minimum.reduceat``, so results are bit-identical.
        """
        source = self._shard(source_shard_id)
        k_s = source.vertex_indptr[ps - self._edges[source_shard_id]] + depth
        start_s = source.level_indptr[k_s]
        len_s = source.level_indptr[k_s + 1] - start_s

        start_t = np.empty(len(pt), dtype=np.int64)
        len_t = np.empty(len(pt), dtype=np.int64)
        for shard_id in np.unique(target_shard).tolist():
            shard = self._shard(int(shard_id))
            mask = target_shard == shard_id
            k_t = shard.vertex_indptr[pt[mask] - self._edges[shard_id]] + depth[mask]
            start_t[mask] = shard.level_indptr[k_t]
            len_t[mask] = shard.level_indptr[k_t + 1] - start_t[mask]

        lengths = np.minimum(len_s, len_t)
        result = np.full(len(ps), INF, dtype=np.float64)
        total = int(lengths.sum())
        if total == 0:
            return result

        group_starts = np.cumsum(lengths) - lengths
        within = np.arange(total, dtype=np.int64) - np.repeat(group_starts, lengths)
        source_values = source.values[np.repeat(start_s, lengths) + within]
        idx_t = np.repeat(start_t, lengths) + within
        target_values = np.empty(total, dtype=np.float64)
        element_shard = np.repeat(target_shard, lengths)
        for shard_id in np.unique(target_shard).tolist():
            selection = element_shard == shard_id
            if selection.any():
                target_values[selection] = self._shard(int(shard_id)).values[
                    idx_t[selection]
                ]
        sums = source_values + target_values

        nonempty = lengths > 0
        result[nonempty] = np.minimum.reduceat(sums, group_starts[nonempty])
        return result

    def __repr__(self) -> str:
        return (
            f"ShardRouter(path={str(self.path)!r}, num_shards={self.num_shards}, "
            f"loaded={len(self.loaded_shard_ids)})"
        )
