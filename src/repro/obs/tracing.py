"""Phase-scoped tracing spans with wall-time histograms.

A :class:`Tracer` measures named spans (``preprocess``, ``ctable``,
``probability``, ``round[i]``) the way streaming engines instrument
per-window latency: each span records its wall time, its parent (spans
nest via a stack) and arbitrary attributes.  Every completed span

* lands in :attr:`Tracer.spans` (and :meth:`Tracer.to_dicts` for
  serialization),
* observes its duration into the registry histogram
  ``phase_seconds_<phase>`` (``phase`` defaults to the span name, so
  per-round spans named ``round[3]`` aggregate under ``round``),
* emits a ``span`` event into the event log, when one is attached.

Overhead is a few dict operations per span -- far below the <5% budget
for whole-phase instrumentation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .events import EventLog
from .metrics import MetricsRegistry

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One completed (or active) traced phase."""

    name: str
    #: histogram key; ``round[i]`` spans share phase ``round``
    phase: str
    #: start offset in seconds since the tracer's epoch
    start: float
    end: Optional[float] = None
    parent: Optional[str] = None
    depth: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        record = {
            "name": self.name,
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "parent": self.parent,
            "depth": self.depth,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


class Tracer:
    """Nested span measurement feeding a registry and an event log."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        event_log: Optional[EventLog] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.event_log = event_log
        self._epoch = time.perf_counter()
        self._stack: List[Span] = []
        #: completed spans, in completion order
        self.spans: List[Span] = []
        #: end of the last child recorded under a parent span, by id
        self._child_end: Dict[int, float] = {}

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    @contextmanager
    def span(self, name: str, phase: Optional[str] = None, **attrs) -> Iterator[Span]:
        """Measure the block as one span nested under the active span."""
        record = Span(
            name=name,
            phase=phase or name,
            start=self._now(),
            parent=self._stack[-1].name if self._stack else None,
            depth=len(self._stack),
            attrs=dict(attrs),
        )
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self._now()
            self._finish(record)

    def record(
        self,
        name: str,
        seconds: float,
        phase: Optional[str] = None,
        parent: Optional[Span] = None,
        **attrs,
    ) -> Span:
        """Register an externally timed span (work measured elsewhere).

        The span nests under the currently active span; its end is "now"
        and its start back-dated by ``seconds``, so ordering stays sane.
        With ``parent`` (a span recorded earlier) it nests under that
        span instead: the children of one parent are laid out back to
        back from the parent's start, in the order they are recorded.
        """
        if parent is None:
            end = self._now()
            # The start may predate the tracer's epoch (negative offset)
            # when the measured work happened before tracing began.
            start = end - max(0.0, seconds)
            parent_name = self._stack[-1].name if self._stack else None
            depth = len(self._stack)
        else:
            start = self._child_end.get(id(parent), parent.start)
            end = start + max(0.0, seconds)
            self._child_end[id(parent)] = end
            parent_name = parent.name
            depth = parent.depth + 1
        record = Span(
            name=name,
            phase=phase or name,
            start=start,
            end=end,
            parent=parent_name,
            depth=depth,
            attrs=dict(attrs),
        )
        self._finish(record)
        return record

    def _finish(self, record: Span) -> None:
        self.spans.append(record)
        self.registry.histogram("phase_seconds_%s" % record.phase).observe(
            record.seconds
        )
        if self.event_log is not None:
            self.event_log.emit(
                "span",
                name=record.name,
                phase=record.phase,
                seconds=record.seconds,
                parent=record.parent,
                depth=record.depth,
                **record.attrs,
            )

    def find(self, name: str) -> List[Span]:
        """All completed spans with the given name."""
        return [span for span in self.spans if span.name == name]

    def to_dicts(self) -> List[Dict[str, object]]:
        return [span.to_dict() for span in self.spans]
