"""Span-based tracing over wall-clock time.

A *span* brackets one logical operation -- a profiler run, a REAPER round,
an engine dispatch loop -- and records how long it really took (wall time
via ``time.perf_counter``, not simulated time; simulated durations are
already exact and live in the metrics the instrumented components emit).

Usage::

    with tracer.span("profiler.run", mechanism="reach", chip_id=3):
        ...

Closing a span feeds two outputs:

* a histogram series ``span.<name>`` in the metrics registry (one
  observation per completed span, keyed by the span *name only* -- span
  attributes are high-cardinality by design, e.g. one ``chip_id`` per
  chip, and belong in the event log, not as metric label explosions), and
* a ``span`` event on the event sink, carrying name, attributes, nesting
  depth, and elapsed seconds.

Spans nest via a plain stack, so ``depth`` in the event log reconstructs
the call tree.

When the tracer carries a :class:`~repro.obs.context.TraceContext`
(``tracer.context = TraceContext.new()``), every span additionally gets
a ``span_id``, inherits its ``parent_id`` from the enclosing span (or
the context's remote parent for root spans), and stamps all three ids
into the ``span`` event -- the correlation substrate that lets merged
parent+worker event logs render as one tree.  With no context attached
the event shape is exactly the pre-context one (no id fields), so
untraced runs stay byte-for-byte stable.

``span`` yields a :class:`SpanHandle` when a context is active (callers
that need to forward the id across a process boundary read
``handle.span_id``) and ``None`` otherwise.  Tracing reads the clock and
writes observability state only -- it cannot perturb simulation results.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .context import TraceContext, new_span_id
from .events import NullEventSink
from .metrics import MetricsRegistry


@dataclass(frozen=True)
class SpanHandle:
    """Identity of one open span, yielded by :meth:`Tracer.span`."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]

    def context(self) -> TraceContext:
        """The trace context a remote callee of this span should adopt."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)


class Tracer:
    """Produces nested spans bound to one registry + event sink pair."""

    def __init__(self, metrics: MetricsRegistry, sink=None) -> None:
        self.metrics = metrics
        self.sink = sink if sink is not None else NullEventSink()
        #: Optional trace identity; set it to stamp span ids onto events.
        self.context: Optional[TraceContext] = None
        # Stack frames are (name, span_id, attrs); span_id is None when
        # the frame was opened without a context.  ``attrs`` is the dict
        # the span's event carries, so :meth:`annotate` can extend it.
        self._stack: List[Tuple[str, Optional[str], Dict[str, Any]]] = []

    @property
    def depth(self) -> int:
        return len(self._stack)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[SpanHandle]]:
        """Time one operation; record it as a histogram sample + event."""
        ctx = self.context
        handle: Optional[SpanHandle] = None
        ids: dict = {}
        if ctx is not None:
            parent_id = self._stack[-1][1] if self._stack else ctx.span_id
            span_id = new_span_id()
            handle = SpanHandle(
                name=name, trace_id=ctx.trace_id, span_id=span_id, parent_id=parent_id
            )
            ids = {"trace_id": ctx.trace_id, "span_id": span_id}
            if parent_id is not None:
                ids["parent_id"] = parent_id
            self._stack.append((name, span_id, attrs))
        else:
            self._stack.append((name, None, attrs))
        started = time.perf_counter()
        try:
            yield handle
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            self.metrics.histogram(f"span.{name}").observe(elapsed)
            self.sink.emit(
                "span",
                name=name,
                elapsed_s=elapsed,
                depth=len(self._stack),
                **ids,
                **attrs,
            )

    def annotate(self, **attrs: Any) -> None:
        """Add attributes to the innermost open span's event (for counts
        known only once the spanned work is done); no-op outside a span."""
        if self._stack:
            self._stack[-1][2].update(attrs)
