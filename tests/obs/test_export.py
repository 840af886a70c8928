"""Exporters: Chrome trace documents, Prometheus text, trace_summary CLI."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.obs.export import (
    render_prometheus,
    to_chrome_trace,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.metrics import RELATIVE_ACCURACY, MetricsRegistry
from repro.obs.trace import Span


def make_spans() -> list[Span]:
    parent = Span(
        name="serve.batch",
        category="serve",
        start_ns=1_000_000,
        duration_ns=2_000_000,
        pid=100,
        process="main",
        attrs={"batch_id": 1},
    )
    child = Span(
        name="serve.request",
        category="serve",
        start_ns=1_200_000,
        duration_ns=800_000,
        parent_id=parent.span_id,
        trace_id="r0",
        pid=200,
        process="worker-0",
    )
    return [parent, child]


class TestChromeTrace:
    def test_document_structure(self):
        doc = to_chrome_trace(make_spans())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"main", "worker-0"}
        assert len(spans) == 2
        batch = next(e for e in spans if e["name"] == "serve.batch")
        request = next(e for e in spans if e["name"] == "serve.request")
        # Timestamps are microseconds.
        assert batch["ts"] == 1000.0
        assert batch["dur"] == 2000.0
        assert batch["args"]["batch_id"] == 1
        assert request["args"]["parent_id"] == batch["args"]["span_id"]
        assert request["args"]["trace_id"] == "r0"

    def test_accepts_span_dicts(self):
        doc = to_chrome_trace([s.to_dict() for s in make_spans()])
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == 2

    def test_dropped_spans_reported(self):
        doc = to_chrome_trace([], dropped=5)
        assert doc["otherData"] == {"dropped_spans": 5}
        assert "otherData" not in to_chrome_trace([])

    def test_write_is_valid_json(self, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", make_spans(), dropped=1)
        doc = json.loads(Path(path).read_text())
        assert doc["otherData"]["dropped_spans"] == 1


class TestPrometheus:
    def test_render_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.counter("serve.completed", help="requests finished").inc(12)
        reg.gauge("fleet.workers").set(2)
        h = reg.histogram("serve.service_time_ms")
        h.observe(1.5)
        h.observe(2.5)
        text = render_prometheus(reg)
        assert "# HELP serve_completed requests finished" in text
        assert "# TYPE serve_completed counter" in text
        assert "serve_completed 12" in text
        assert "fleet_workers 2" in text
        assert "# TYPE serve_service_time_ms summary" in text
        assert "serve_service_time_ms_count 2" in text
        assert "serve_service_time_ms_sum 4.0" in text
        assert "serve_service_time_ms_min 1.5" in text
        assert "serve_service_time_ms_max 2.5" in text
        # Summary quantiles come from the sketch: p50 within its relative
        # accuracy of the lower sample, p95 the exact maximum.
        assert f'serve_service_time_ms{{quantile="0.5"}} {h.quantile(0.5)!r}' in text
        assert h.quantile(0.5) == pytest.approx(1.5, rel=RELATIVE_ACCURACY)
        assert 'serve_service_time_ms{quantile="0.95"} 2.5' in text

    def test_empty_histogram_renders_without_inf(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        text = render_prometheus(reg)
        assert "h_count 0" in text
        assert "Inf" not in text
        assert "quantile" not in text  # no NaN samples either

    def test_write(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        path = write_prometheus(tmp_path / "m.prom", reg)
        assert "c 1" in Path(path).read_text()


@pytest.fixture(scope="module")
def trace_summary():
    """Load tools/trace_summary.py as a module (tools/ is not a package)."""
    root = Path(__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location(
        "trace_summary", root / "tools" / "trace_summary.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTraceSummaryCLI:
    def test_summary_of_exported_trace(self, tmp_path, trace_summary, capsys):
        path = write_chrome_trace(tmp_path / "t.json", make_spans())
        assert trace_summary.main([path, "--expect-spans", "2"]) == 0
        out = capsys.readouterr().out
        assert "spans: 2" in out
        assert "serve" in out
        assert "worker-0" in out
        assert "r0" in out  # slow-request table shows trace ids

    def test_slow_requests_sharing_an_id_are_told_apart(self, tmp_path, trace_summary, capsys):
        """A serve-bench trace reuses request ids: the single server and a
        fleet worker each serve ``r3``, once per run.  Every row carries its
        start offset from the trace's first span, and its process."""
        runs = [
            (1_000_000_000, 9_000_000, 100, "main"),
            (1_250_000_000, 8_000_000, 100, "main"),
            (2_000_000_000, 7_000_000, 200, "worker-0"),
            (2_500_000_000, 6_000_000, 200, "worker-0"),
        ]
        spans = [
            Span(
                name="serve.request",
                category="serve",
                start_ns=start,
                duration_ns=dur,
                trace_id="r3",
                pid=pid,
                process=process,
            )
            for start, dur, pid, process in runs
        ]
        path = write_chrome_trace(tmp_path / "t.json", spans)
        assert trace_summary.main([path]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if " r3 " in line]
        offsets = [re.search(r" at +([\d.]+) ms ", row).group(1) for row in rows]
        assert offsets == ["0.0", "250.0", "1000.0", "1500.0"]
        processes = [row.split("[")[1].split("]")[0] for row in rows]
        assert processes == ["main", "main", "worker-0", "worker-0"]

    def test_expect_workers_counts_traced_worker_pids(self, tmp_path, trace_summary):
        path = write_chrome_trace(tmp_path / "t.json", make_spans())
        assert trace_summary.count_worker_processes(trace_summary.load_events(path)) == 1
        assert trace_summary.main([path, "--expect-workers", "1"]) == 0
        assert trace_summary.main([path, "--expect-workers", "2"]) == 1

    def test_expect_spans_failure(self, tmp_path, trace_summary):
        path = write_chrome_trace(tmp_path / "t.json", [])
        assert trace_summary.main([path, "--expect-spans", "1"]) == 1

    def test_rejects_non_trace_json(self, tmp_path, trace_summary):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a trace"}')
        assert trace_summary.main([str(path)]) == 1
