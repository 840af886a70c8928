"""Process-safe hierarchical tracing.

The tracer records :class:`Span` objects into a bounded in-memory ring
buffer.  Spans are created with a context-manager API::

    from repro.obs.trace import get_tracer

    with get_tracer().span("serve.batch", category="serve", app="blur") as sp:
        ...
        sp.set(size=4)

Design constraints (see docs/observability.md):

* **Disabled by default.**  ``get_tracer()`` returns a module-level
  :class:`NullTracer` singleton unless tracing was installed explicitly or
  via the ``REPRO_TRACE`` environment variable.  A disabled call site costs
  one function call plus an attribute check; the null ``span()`` hands back
  a shared no-op context manager and allocates nothing per call beyond its
  keyword dict.
* **Monotonic clock.**  Timestamps come from :func:`time.monotonic_ns`.
  On Linux ``CLOCK_MONOTONIC`` is system-wide, so spans recorded by fleet
  worker processes on the same machine share a timeline with the
  front-end and can be merged into a single trace.
* **Bounded.**  The ring buffer drops the oldest spans once ``capacity``
  is reached; ``dropped`` counts the casualties so exports can report
  truncation instead of silently lying.
* **Out-of-band.**  Nothing here feeds back into execution: the
  bit-identity suites and the lowered kernel source are untouched by
  tracing.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..env import switched_off

__all__ = [
    "ENV_TRACE",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "install",
    "disable",
    "env_trace_path",
]

ENV_TRACE = "REPRO_TRACE"

DEFAULT_CAPACITY = 65536


@dataclass
class Span:
    """One completed (or instant) operation on the shared monotonic timeline."""

    name: str
    category: str = ""
    start_ns: int = 0
    duration_ns: int = 0
    span_id: int = 0
    parent_id: int | None = None
    trace_id: str | None = None
    pid: int = 0
    tid: int = 0
    process: str = "main"
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation used for wire shipping and export."""
        out: dict[str, Any] = {
            "name": self.name,
            "cat": self.category,
            "start_ns": self.start_ns,
            "dur_ns": self.duration_ns,
            "span_id": self.span_id,
            "pid": self.pid,
            "tid": self.tid,
            "process": self.process,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            name=str(data.get("name", "?")),
            category=str(data.get("cat", "")),
            start_ns=int(data.get("start_ns", 0)),
            duration_ns=int(data.get("dur_ns", 0)),
            span_id=int(data.get("span_id", 0)),
            parent_id=data.get("parent_id"),
            trace_id=data.get("trace_id"),
            pid=int(data.get("pid", 0)),
            tid=int(data.get("tid", 0)),
            process=str(data.get("process", "main")),
            attrs=dict(data.get("attrs", {})),
        )


class _ActiveSpan:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_category", "_trace_id", "_attrs", "_start_ns", "_span_id")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        trace_id: str | None,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._trace_id = trace_id
        self._attrs = attrs
        self._start_ns = 0
        self._span_id = 0

    def set(self, **attrs: Any) -> "_ActiveSpan":
        self._attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        self._span_id = self._tracer._next_id()
        self._tracer._push(self._span_id)
        self._start_ns = time.monotonic_ns()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        end_ns = time.monotonic_ns()
        parent_id = self._tracer._pop(self._span_id)
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        self._tracer._record(
            Span(
                name=self._name,
                category=self._category,
                start_ns=self._start_ns,
                duration_ns=end_ns - self._start_ns,
                span_id=self._span_id,
                parent_id=parent_id,
                trace_id=self._trace_id,
                pid=self._tracer.pid,
                tid=threading.get_ident() & 0x7FFFFFFF,
                process=self._tracer.process,
                attrs=self._attrs,
            )
        )


class _NoopSpan:
    """Shared do-nothing context manager returned by the null tracer."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects spans into a bounded ring buffer; safe across threads."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY, process: str = "main") -> None:
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.process = process
        self.pid = os.getpid()
        self.dropped = 0
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._id = 0
        self._stack = threading.local()

    # -- span creation -------------------------------------------------

    def span(
        self, name: str, category: str = "", trace_id: str | None = None, **attrs: Any
    ) -> _ActiveSpan:
        """Open a timed span; attributes may be added later via ``sp.set()``."""
        return _ActiveSpan(self, name, category, trace_id, attrs)

    def point(
        self, name: str, category: str = "", trace_id: str | None = None, **attrs: Any
    ) -> None:
        """Record an instant (zero-duration) event, e.g. a controller decision."""
        now = time.monotonic_ns()
        stack = getattr(self._stack, "ids", None)
        self._record(
            Span(
                name=name,
                category=category,
                start_ns=now,
                duration_ns=0,
                span_id=self._next_id(),
                parent_id=stack[-1] if stack else None,
                trace_id=trace_id,
                pid=self.pid,
                tid=threading.get_ident() & 0x7FFFFFFF,
                process=self.process,
                attrs=attrs,
            )
        )

    def record(
        self,
        name: str,
        category: str = "",
        *,
        start_ns: int,
        duration_ns: int,
        trace_id: str | None = None,
        **attrs: Any,
    ) -> None:
        """Record a span whose start/end were measured by the caller.

        Used where the natural span boundaries do not nest lexically, e.g. a
        serve request measured from arrival to completion.  The recording
        thread's innermost open span (if any) becomes the parent.
        """
        stack = getattr(self._stack, "ids", None)
        self._record(
            Span(
                name=name,
                category=category,
                start_ns=start_ns,
                duration_ns=duration_ns,
                span_id=self._next_id(),
                parent_id=stack[-1] if stack else None,
                trace_id=trace_id,
                pid=self.pid,
                tid=threading.get_ident() & 0x7FFFFFFF,
                process=self.process,
                attrs=attrs,
            )
        )

    # -- buffer access -------------------------------------------------

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[dict[str, Any]]:
        """Pop every buffered span as JSON-safe dicts (for wire shipping)."""
        with self._lock:
            out = [span.to_dict() for span in self._spans]
            self._spans.clear()
        return out

    def ingest(self, span_dicts: Iterable[dict[str, Any]], process: str | None = None) -> int:
        """Merge spans recorded by another process into this buffer."""
        count = 0
        with self._lock:
            for data in span_dicts:
                span = Span.from_dict(data)
                if process is not None:
                    span.process = process
                if len(self._spans) == self.capacity:
                    self.dropped += 1
                self._spans.append(span)
                count += 1
        return count

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())

    # -- internals -----------------------------------------------------

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _push(self, span_id: int) -> None:
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = []
            self._stack.ids = stack
        stack.append(span_id)

    def _pop(self, span_id: int) -> int | None:
        """Pop this span off the thread's stack; return the parent span id."""
        stack = getattr(self._stack, "ids", None)
        if stack and stack[-1] == span_id:
            stack.pop()
        return stack[-1] if stack else None

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(span)


class NullTracer:
    """Disabled tracer: every operation is a cheap no-op."""

    enabled = False
    capacity = 0
    dropped = 0
    process = "main"
    pid = 0

    def span(self, name: str, category: str = "", trace_id: str | None = None, **attrs: Any):
        return _NOOP_SPAN

    def point(self, name: str, category: str = "", trace_id: str | None = None, **attrs: Any):
        return None

    def record(self, name: str, category: str = "", **kwargs: Any) -> None:
        return None

    def spans(self) -> list[Span]:
        return []

    def drain(self) -> list[dict[str, Any]]:
        return []

    def ingest(self, span_dicts: Iterable[dict[str, Any]], process: str | None = None) -> int:
        return 0

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[Span]:
        return iter(())


NULL_TRACER = NullTracer()

_active: Tracer | NullTracer = NULL_TRACER
_env_checked = False
_lock = threading.Lock()


def env_trace_path() -> str | None:
    """Return the export path requested via ``REPRO_TRACE``, if any."""
    raw = os.environ.get(ENV_TRACE)
    if raw is None or switched_off(raw):
        return None
    return raw


def get_tracer() -> Tracer | NullTracer:
    """The process-wide tracer (null unless installed or ``REPRO_TRACE`` set)."""
    global _env_checked
    if not _env_checked:
        path = None
        with _lock:
            if not _env_checked:
                _env_checked = True
                path = env_trace_path()
        if path is not None:
            # Outside _lock: install() re-acquires it.
            install(export_path=path)
    return _active


def install(
    capacity: int = DEFAULT_CAPACITY,
    process: str = "main",
    export_path: str | os.PathLike[str] | None = None,
) -> Tracer:
    """Enable tracing process-wide; optionally export a Chrome trace at exit.

    Fleet workers call this with ``export_path=None`` so only the front-end
    writes the merged trace file.
    """
    global _active, _env_checked
    tracer = Tracer(capacity=capacity, process=process)
    with _lock:
        _active = tracer
        _env_checked = True
    if export_path is not None:
        import atexit

        def _export(path: str = os.fspath(export_path), tr: Tracer = tracer) -> None:
            from .export import write_chrome_trace

            if _active is tr:
                write_chrome_trace(path, tr.spans(), dropped=tr.dropped)

        atexit.register(_export)
    return tracer


def disable() -> None:
    """Reset to the null tracer (used by tests and worker shutdown)."""
    global _active, _env_checked
    with _lock:
        _active = NULL_TRACER
        _env_checked = True
