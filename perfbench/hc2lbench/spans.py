"""In-memory span recording for the traced benchmark run.

A span is one timed call into a layer: its name, start and end on the
``perf_counter`` clock, the span that was open when it started (its
parent) and the request id of the benchmark operation that caused it.
Spans stay in a list until the run ends and :meth:`Tracer.write` dumps
them as JSON.

Untraced runs use :data:`NULL_TRACER`, whose ``span`` is a no-op
context manager, so the measured code path is the same function calls
with nothing recorded.

:func:`instrument` wraps the public entry points of each layer of the
``repro`` package for the duration of a traced run and restores the
originals afterwards; the package's source is never modified.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

_current_span: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_current_request: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)


@dataclass
class Span:
    """One recorded call: name, interval, parent span and request id."""

    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[int] = None
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; nothing is written until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(
            span_id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=_current_span.get(),
            request=_current_request.get(),
        )
        token = _current_span.set(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            _current_span.reset(token)
            self.spans.append(record)

    @contextlib.contextmanager
    def request(self, name: str) -> Iterator[Span]:
        """A top-level span that opens a new request id for its children."""
        token = _current_request.set(next(self._requests))
        try:
            with self.span(name) as record:
                yield record
        finally:
            _current_request.reset(token)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def children_of(self, parents: List[Span], name: str) -> List[Span]:
        ids = {span.span_id for span in parents}
        return [span for span in self.spans if span.name == name and span.parent in ids]

    def write(self, path) -> None:
        rows = [
            {
                "id": s.span_id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request": s.request,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None

    request = span


NULL_TRACER = NullTracer()


def _wrap(tracer: Tracer, name: str, func, on_result=None):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        with tracer.span(name) as record:
            result = func(*args, **kwargs)
            if on_result is not None:
                on_result(record, result)
            return result

    return traced


def _record_build(record: Span, result) -> None:
    """Attach the ``ConstructionStats`` phase timers to a build span."""
    stats = result[2]
    for phase, seconds in stats.timer.durations.items():
        record.attrs[f"phase.{phase}"] = seconds
    record.attrs["num_shortcuts"] = float(stats.num_shortcuts)


def _record_pairs(record: Span, result) -> None:
    record.attrs["pairs"] = float(len(result))


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap each layer's public entry points with spans, then restore them.

    Every patch replaces a module or class attribute that the package
    looks up at call time, so calls made inside the package (for example
    ``HC2LIndex.save`` reaching ``save_index``) are recorded too.
    """
    import repro.core.dynamic as dynamic
    import repro.core.engine as engine
    import repro.core.index as index
    import repro.core.persistence as persistence
    import repro.serving.shards as shards
    from repro.core.construction import HC2LBuilder
    from repro.core.flat import FlatLabelling
    from repro.graph.graph import Graph
    from repro.serving.shards import ShardRouter

    patches = [
        (index, "contract_degree_one", "graph.contract", None),
        (HC2LBuilder, "build", "construction.build", _record_build),
        (persistence, "save_index", "persistence.save", None),
        (persistence, "load_index", "persistence.load", None),
        # the router imported these two by name, so patch its references
        (shards, "load_sharded_components", "persistence.load", None),
        (shards, "load_shard", "persistence.load", None),
        (engine, "as_pair_array", "oracle.as_pair_array", None),
        (engine.BatchResolver, "validate_vertices", "engine.resolve", None),
        (engine.BatchResolver, "resolve", "engine.resolve", None),
        (engine.BatchResolver, "lca_depths", "engine.lca", None),
        (engine.QueryEngine, "distances", "engine.distances", _record_pairs),
        (engine.QueryEngine, "distance", "engine.point", None),
        (Graph, "reweighted", "graph.reweighted", None),
        (dynamic, "relabel", "dynamic.relabel", None),
        (ShardRouter, "distances", "shards.router_batch", _record_pairs),
    ]
    saved = []
    try:
        for owner, attr, name, on_result in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, on_result))
        # a classmethod needs its underlying function wrapped and re-bound
        original = FlatLabelling.__dict__["from_labelling"]
        saved.append((FlatLabelling, "from_labelling", original))
        FlatLabelling.from_labelling = classmethod(
            _wrap(tracer, "flat.from_labelling", original.__func__)
        )
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
