"""The batch-first :class:`DistanceOracle` protocol shared by every method.

The paper evaluates HC2L against seven baselines (Dijkstra, bidirectional
Dijkstra, CH, PLL, HL, PHL, H2H).  All of them answer the same question -
"what is the exact shortest-path distance between s and t?" - but before
this module each exposed an ad-hoc scalar ``distance(s, t)`` and the
callers (applications, experiment harness, CLI, serving layer) probed for
optional batch methods with ``hasattr``.  :class:`DistanceOracle` is the
single query surface every method now implements:

``distance(s, t)``
    one exact distance (``inf`` for disconnected pairs).
``distances(pairs)``
    a ``float64`` array aligned with ``pairs``; **bit-identical** to
    calling :meth:`distance` per pair (the conformance suite asserts
    ``==``, not ``approx``).
``one_to_many(s, targets)`` / ``many_to_many(sources, targets)``
    batched single-source rows and full distance matrices.
``distance_with_hub_count(s, t)``
    distance plus the number of label entries inspected (Table 3 metric).
``index_size_bytes`` / ``supports_batch``
    capability metadata: approximate index size and whether the batch
    methods are genuinely vectorised (``True``) or a per-pair loop
    behind the same signature (``False``).

:class:`BatchMixin` supplies correct loop-based batch implementations in
terms of the scalar :meth:`distance`, so a method only overrides the
pieces its structure lets it vectorise (e.g. the Dijkstra oracle groups a
pair batch by source, CH shares the forward search of a one-to-many row,
HC2L's engine vectorises everything).
"""

from __future__ import annotations

import struct
from itertools import starmap
from typing import Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

INF = float("inf")

PairLike = Sequence[Tuple[int, int]]

#: one ``(s, t)`` pair as two native int64s; ``pack`` refuses anything but
#: exactly two integers (``__index__``) that fit in an int64
_PAIR = struct.Struct("=qq")


@runtime_checkable
class DistanceOracle(Protocol):
    """Anything that answers exact distance queries, scalar or batched.

    The protocol is ``runtime_checkable`` so the conformance tests can
    assert ``isinstance(oracle, DistanceOracle)``; structural typing keeps
    third-party indexes pluggable without inheriting from anything.
    """

    #: seconds spent building the index (0 for search-based methods)
    construction_seconds: float

    @property
    def supports_batch(self) -> bool:
        """Whether the batch methods are vectorised (not a scalar loop)."""
        ...

    @property
    def index_size_bytes(self) -> int:
        """Approximate size of the query structures in bytes."""
        ...

    def distance(self, s: int, t: int) -> float:
        """Exact distance between ``s`` and ``t`` (``inf`` if disconnected)."""
        ...

    def distances(self, pairs: PairLike) -> np.ndarray:
        """Exact distances for a batch of ``(s, t)`` pairs (``float64``)."""
        ...

    def one_to_many(self, s: int, targets: Sequence[int]) -> np.ndarray:
        """Distances from ``s`` to every vertex of ``targets``."""
        ...

    def many_to_many(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """The ``len(sources) x len(targets)`` distance matrix."""
        ...

    def distance_with_hub_count(self, s: int, t: int) -> Tuple[float, int]:
        """Distance plus the number of label entries inspected."""
        ...


# --------------------------------------------------------------------- #
# input normalisation shared by every oracle
# --------------------------------------------------------------------- #
def as_vertex_ids(array: np.ndarray, name: str) -> np.ndarray:
    """Require an integer-typed array; casting floats would silently truncate."""
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(
            f"{name} must contain integer vertex ids, got dtype {array.dtype}"
        )
    return array.astype(np.int64, copy=False)


def as_pair_array(pairs: PairLike) -> np.ndarray:
    """Normalise a pair batch to an ``(n, 2)`` int64 array (may be empty).

    A non-empty list or tuple of pairs of integers is packed in one typed
    pass, skipping ``np.asarray``'s dtype discovery.  Anything that pass
    refuses - floats, strings, ``None``, ids beyond int64, pairs not of
    two items, and all-0/1 batches (which may be all ``bool``) - takes
    the ``np.asarray`` path and gets its answer or its error.
    """
    if isinstance(pairs, (list, tuple)) and pairs:
        pair_array = _typed_pair_array(pairs)
        if pair_array is not None:
            return pair_array
    pair_array = np.asarray(pairs)
    if pair_array.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if pair_array.ndim != 2 or pair_array.shape[1] != 2:
        raise ValueError(
            f"pairs must be a sequence of (s, t) tuples, got shape {pair_array.shape}"
        )
    return as_vertex_ids(pair_array, "pairs")


def _typed_pair_array(pairs: Sequence) -> Optional[np.ndarray]:
    """The ``(n, 2)`` int64 array of ``pairs``, or ``None`` to fall back."""
    try:
        # packing each pair on its own checks its length too, so
        # [(0, 1, 2), (3,)] cannot flatten into two misaligned pairs
        packed = bytearray().join(starmap(_PAIR.pack, pairs))
    except (struct.error, TypeError):  # TypeError: a pair is not iterable
        return None
    pair_array = np.frombuffer(packed, dtype=np.int64).reshape(-1, 2)
    if pair_array.max() <= 1:
        return None  # possibly all bool, which np.asarray rejects by dtype
    return pair_array


def pairs_from_source(s: int, targets) -> np.ndarray:
    """An ``(len(targets), 2)`` pair array fanning one source out to targets.

    The shared building block behind every ``one_to_many`` implementation:
    validates the source and target dtypes once and leaves per-vertex range
    checks to the ``distances`` call evaluating the pairs.
    """
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool):
        # int(2.7) would silently query from vertex 2; the scalar path raises
        raise ValueError(f"s must be an integer vertex id, got {s!r}")
    target_array = as_vertex_ids(np.asarray(targets), "targets")
    pairs = np.empty((len(target_array), 2), dtype=np.int64)
    pairs[:, 0] = int(s)
    pairs[:, 1] = target_array
    return pairs


class BatchMixin:
    """Default batch implementations in terms of the scalar ``distance``.

    The loops perform exactly the float operations of the scalar path, so
    results are bit-identical to a caller-side per-pair loop - which is
    what the protocol conformance suite asserts for every oracle.
    Subclasses override the methods their structure lets them vectorise
    and flip :attr:`supports_batch` when the override is genuinely
    batched.
    """

    @property
    def supports_batch(self) -> bool:
        """Loop-based by default; vectorised oracles override with ``True``."""
        return False

    @property
    def index_size_bytes(self) -> int:
        """Defaults to the method's ``label_size_bytes()`` accounting."""
        return int(self.label_size_bytes())  # type: ignore[attr-defined]

    def distances(self, pairs: PairLike) -> np.ndarray:
        """Exact distances for ``(s, t)`` pairs via the scalar path."""
        pair_array = as_pair_array(pairs)
        out = np.empty(len(pair_array), dtype=np.float64)
        distance = self.distance  # type: ignore[attr-defined]
        for i, (s, t) in enumerate(pair_array.tolist()):
            out[i] = distance(s, t)
        return out

    def one_to_many(self, s: int, targets: Sequence[int]) -> np.ndarray:
        """Distances from ``s`` to every vertex of ``targets``."""
        return self.distances(pairs_from_source(s, targets))

    def many_to_many(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """The ``len(sources) x len(targets)`` distance matrix."""
        source_array = as_vertex_ids(np.asarray(sources), "sources")
        target_array = as_vertex_ids(np.asarray(targets), "targets")
        pairs = np.empty((len(source_array) * len(target_array), 2), dtype=np.int64)
        pairs[:, 0] = np.repeat(source_array, len(target_array))
        pairs[:, 1] = np.tile(target_array, len(source_array))
        return self.distances(pairs).reshape(len(source_array), len(target_array))
