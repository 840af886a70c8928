#!/usr/bin/env python
"""Offline summary of an exported observability trace.

Reads a Chrome trace-event JSON written by ``repro.obs`` (the ``--trace``
flag of ``python -m repro.experiments``, or ``REPRO_TRACE``) and prints

1. a per-layer time breakdown — where the wall went, by span category
   (``lowering`` vs ``launch`` vs ``calibrate`` vs ``serve`` vs ``fleet``)
   and per process (front-end vs each fleet worker);
2. the top-N slowest requests (``serve.request``/``fleet.request`` spans),
   with their start offsets (ms from the trace's first span), trace ids,
   configs and batch ids.  One trace may reuse a request id (a server and
   a fleet serve the same trace, runs repeat it), so the offset and the
   process tell such rows apart.

Validation flags for CI smoke steps:

* ``--expect-workers N`` — exit 1 unless spans from at least N distinct
  fleet worker processes are present (proves the cross-process merge);
* ``--expect-spans N`` — exit 1 with fewer than N spans total.

Exit status 0 when the trace parses (and expectations hold), 1 otherwise::

    python tools/trace_summary.py out.json [--top 10] [--expect-workers 2]
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

#: Span names treated as "one request" rows for the top-N table.
REQUEST_SPANS = ("serve.request", "fleet.request")


def load_events(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace-event document")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents must be a list")
    return events


def process_names(events: list[dict]) -> dict[int, str]:
    """pid → process name, from the ``ph: "M"`` metadata events."""
    names: dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event.get("pid", 0)] = str(event.get("args", {}).get("name", "?"))
    return names


def spans_of(events: list[dict]) -> list[dict]:
    return [e for e in events if e.get("ph") == "X"]


def summarize(events: list[dict], top: int) -> str:
    spans = spans_of(events)
    names = process_names(events)
    lines: list[str] = []

    by_category: dict[str, list[float]] = defaultdict(list)
    by_process: dict[str, float] = defaultdict(float)
    for span in spans:
        duration = float(span.get("dur", 0.0))
        by_category[str(span.get("cat", "?"))].append(duration)
        process = names.get(span.get("pid", 0), f"pid-{span.get('pid', 0)}")
        by_process[process] += duration

    lines.append(f"spans: {len(spans)}  processes: {len(by_process)}")
    lines.append("")
    lines.append("per-layer breakdown (span time, not exclusive):")
    total = sum(sum(values) for values in by_category.values()) or 1.0
    for category in sorted(by_category, key=lambda c: -sum(by_category[c])):
        values = by_category[category]
        subtotal = sum(values)
        lines.append(
            f"  {category:<12} {subtotal / 1000.0:10.2f} ms "
            f"({100.0 * subtotal / total:5.1f}%)  spans {len(values):5d}  "
            f"mean {subtotal / len(values) / 1000.0:8.3f} ms"
        )
    lines.append("")
    lines.append("per-process span time:")
    for process in sorted(by_process):
        lines.append(f"  {process:<16} {by_process[process] / 1000.0:10.2f} ms")

    requests = [s for s in spans if s.get("name") in REQUEST_SPANS]
    if requests:
        lines.append("")
        lines.append(f"top {top} slowest requests:")
        requests.sort(key=lambda s: -float(s.get("dur", 0.0)))
        origin = min(float(s.get("ts", 0.0)) for s in spans)
        for span in requests[:top]:
            args = span.get("args", {})
            process = names.get(span.get("pid", 0), "?")
            detail = ", ".join(
                f"{key}={args[key]}"
                for key in ("app", "config", "batch_id", "worker", "cache_hit")
                if key in args
            )
            offset = (float(span.get("ts", 0.0)) - origin) / 1000.0
            lines.append(
                f"  {float(span.get('dur', 0.0)) / 1000.0:10.3f} ms  at {offset:10.1f} ms  "
                f"{args.get('trace_id', '?'):<8} {span.get('name'):<14} "
                f"[{process}] {detail}"
            )
    return "\n".join(lines)


def count_worker_processes(events: list[dict]) -> int:
    names = process_names(events)
    traced_pids = {span.get("pid", 0) for span in spans_of(events)}
    return sum(
        1
        for pid, name in names.items()
        if pid in traced_pids and name.startswith("worker-")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace-event JSON (repro.obs export)")
    parser.add_argument("--top", type=int, default=10, help="how many slow requests to list")
    parser.add_argument(
        "--expect-workers",
        type=int,
        default=None,
        metavar="N",
        help="fail unless spans from >= N distinct fleet worker processes exist",
    )
    parser.add_argument(
        "--expect-spans",
        type=int,
        default=None,
        metavar="N",
        help="fail with fewer than N spans total",
    )
    args = parser.parse_args(argv)

    try:
        events = load_events(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(summarize(events, args.top))

    if args.expect_spans is not None and len(spans_of(events)) < args.expect_spans:
        print(
            f"error: expected >= {args.expect_spans} spans, "
            f"got {len(spans_of(events))}",
            file=sys.stderr,
        )
        return 1
    if args.expect_workers is not None:
        workers = count_worker_processes(events)
        if workers < args.expect_workers:
            print(
                f"error: expected spans from >= {args.expect_workers} fleet "
                f"workers, got {workers}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
