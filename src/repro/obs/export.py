"""Exporters: Chrome trace-event JSON and Prometheus text exposition.

The Chrome format loads directly in ``chrome://tracing`` and Perfetto.
Spans become ``ph: "X"`` (complete) events with microsecond timestamps on
the shared monotonic timeline; per-process ``ph: "M"`` metadata names each
lane (``main``, ``worker-0``, ...) so merged fleet traces read naturally.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable

from .metrics import Histogram, MetricsRegistry
from .trace import Span

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "render_prometheus",
    "write_prometheus",
]


def _as_span(item: Span | dict[str, Any]) -> Span:
    return item if isinstance(item, Span) else Span.from_dict(item)


def to_chrome_trace(
    spans: Iterable[Span | dict[str, Any]], dropped: int = 0
) -> dict[str, Any]:
    """Build a Chrome trace-event document from spans (objects or dicts)."""
    events: list[dict[str, Any]] = []
    seen_processes: dict[int, str] = {}
    for item in spans:
        span = _as_span(item)
        if span.pid not in seen_processes:
            seen_processes[span.pid] = span.process
        args: dict[str, Any] = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.trace_id is not None:
            args["trace_id"] = span.trace_id
        events.append(
            {
                "name": span.name,
                "cat": span.category or "repro",
                "ph": "X",
                "ts": span.start_ns / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process},
        }
        for pid, process in sorted(seen_processes.items())
    ]
    doc: dict[str, Any] = {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
    }
    if dropped:
        doc["otherData"] = {"dropped_spans": dropped}
    return doc


def write_chrome_trace(
    path: str | os.PathLike[str],
    spans: Iterable[Span | dict[str, Any]],
    dropped: int = 0,
) -> str:
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(spans, dropped=dropped), fh)
    return path


def _prom_name(name: str) -> str:
    """Map dotted metric names to Prometheus-legal snake_case."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus-style text exposition (counters, gauges, histogram summaries).

    A summary carries the sketch's p50 and p95 as ``{quantile="q"}`` samples.
    """
    lines: list[str] = []
    for metric in registry:
        name = _prom_name(metric.name)
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        if isinstance(metric, Histogram):
            lines.append(f"# TYPE {name} summary")
            if metric.count:
                for q in (0.5, 0.95):
                    lines.append(f'{name}{{quantile="{q}"}} {_prom_value(metric.quantile(q))}')
            lines.append(f"{name}_count {metric.count}")
            lines.append(f"{name}_sum {_prom_value(metric.sum)}")
            if metric.count:
                lines.append(f"{name}_min {_prom_value(metric.min)}")
                lines.append(f"{name}_max {_prom_value(metric.max)}")
        else:
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.append(f"{name} {_prom_value(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: str | os.PathLike[str], registry: MetricsRegistry) -> str:
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_prometheus(registry))
    return path
