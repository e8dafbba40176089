"""Summaries of timing samples, answer checks and memory readings."""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

#: the percentile every latency's tail figure aims for
TAIL_PERCENTILE = 99.0
#: a tail percentile must have at least this many samples beyond it
TAIL_SAMPLES = 10
#: relative tolerance of a check against an independent reference
REL_TOLERANCE = 1e-9


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: Sequence[float]):
    """The 99th percentile of ``values``, or the highest one with 10 samples beyond it.

    Uses the nearest-rank definition.  Returns ``(value, percentile_used)``:
    with ``n`` samples, rank ``k`` (1-based) leaves ``n - k`` samples
    beyond it, so the rank is capped at ``n - 10``.  Below 11 samples no
    rank qualifies and the median is returned as the 50th percentile.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = min(math.ceil(TAIL_PERCENTILE / 100.0 * n), n - TAIL_SAMPLES)
    if rank < math.ceil(n / 2):
        return median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / n


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def descendant_pids(root_pid: int) -> List[int]:
    """Every live descendant of ``root_pid``, read from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found: List[int] = []
    stack = list(children.get(root_pid, []))
    while stack:
        pid = stack.pop()
        found.append(pid)
        stack.extend(children.get(pid, []))
    return found


@dataclass
class Checker:
    """Counts operations and the wrong answers found among them.

    Each measured call counts once in ``attempted`` (:meth:`op`); every
    comparison that disagrees, and every raised call, counts once in
    ``failed``.  ``corrupt`` perturbs the expected values of that many comparisons
    (one value each), so the self-test can confirm that a wrong answer
    is counted as a failure.
    """

    corrupt: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def _expected(self, expected: np.ndarray) -> np.ndarray:
        if self.corrupt > 0 and expected.size:
            self.corrupt -= 1
            expected = np.array(expected, dtype=np.float64, copy=True)
            expected.flat[0] = expected.flat[0] + 1.0
        return expected

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def op(self, count: int = 1) -> None:
        self.attempted += count

    def equal(self, what: str, got, expected) -> bool:
        """Check that an answer is bit-identical (``==``) to ``expected``.

        ``None`` stands for a call that raised, already counted as failed.
        """
        if got is None:
            return False
        expected = self._expected(np.asarray(expected, dtype=np.float64))
        got = np.asarray(got, dtype=np.float64)
        if got.shape != expected.shape or not np.array_equal(got, expected):
            self.fail(what)
            return False
        return True

    def close(self, what: str, got, reference) -> bool:
        """Check an answer against an independent ``reference`` (relative tolerance)."""
        if got is None:
            return False
        reference = self._expected(np.asarray(reference, dtype=np.float64))
        got = np.asarray(got, dtype=np.float64)
        if got.shape != reference.shape or not np.allclose(
            got, reference, rtol=REL_TOLERANCE, atol=0.0, equal_nan=False
        ):
            self.fail(what)
            return False
        return True

    def raised(self, what: str, error: BaseException) -> None:
        self.fail(f"{what}: {type(error).__name__}: {error}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Samples:
    """Named timing samples collected during one measured pass."""

    values: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def get(self, name: str) -> List[float]:
        return self.values.get(name, [])

    def count(self, name: str) -> int:
        return len(self.values.get(name, []))
