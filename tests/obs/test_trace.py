"""Tracer: span nesting, ring bounds, no-op fast path, env installation."""

from __future__ import annotations

import threading

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import NULL_TRACER, Span, Tracer


@pytest.fixture()
def tracer():
    tr = obs_trace.install(process="test")
    yield tr
    obs_trace.disable()


class TestSpans:
    def test_context_manager_records_one_span(self, tracer):
        with tracer.span("work", category="unit", detail=7):
            pass
        spans = tracer.spans()
        assert len(spans) == 1
        span = spans[0]
        assert span.name == "work"
        assert span.category == "unit"
        assert span.attrs == {"detail": 7}
        assert span.duration_ns >= 0
        assert span.parent_id is None

    def test_nesting_links_parent_ids(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
            outer.set(tag="x")
        inner, outer = tracer.spans()
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.attrs == {"tag": "x"}

    def test_record_adopts_open_span_as_parent(self, tracer):
        with tracer.span("outer") as outer:
            tracer.record("measured", start_ns=1, duration_ns=2)
        measured, outer_span = tracer.spans()
        assert measured.parent_id == outer_span.span_id
        assert outer.set() is outer  # chainable, harmless after exit

    def test_point_is_instant(self, tracer):
        tracer.point("decision", category="ctl", action="tighten")
        (span,) = tracer.spans()
        assert span.duration_ns == 0
        assert span.attrs["action"] == "tighten"

    def test_exception_annotates_span_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "ValueError"

    def test_trace_id_is_carried(self, tracer):
        with tracer.span("req", trace_id="r7"):
            pass
        assert tracer.spans()[0].trace_id == "r7"

    def test_monotonic_ordering(self, tracer):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans()
        assert b.start_ns >= a.start_ns

    def test_threads_have_independent_parent_stacks(self, tracer):
        seen = []

        def worker():
            with tracer.span("thread-span"):
                pass
            seen.append(True)

        with tracer.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        thread_span = next(s for s in tracer.spans() if s.name == "thread-span")
        assert thread_span.parent_id is None  # not parented across threads
        assert seen == [True]


class TestRingBuffer:
    def test_capacity_bounds_and_counts_drops(self):
        tr = Tracer(capacity=4, process="t")
        for i in range(10):
            tr.point(f"p{i}")
        assert len(tr) == 4
        assert tr.dropped == 6
        assert [s.name for s in tr.spans()] == ["p6", "p7", "p8", "p9"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_drain_empties_and_round_trips(self, tracer):
        with tracer.span("x", category="c", k=1, trace_id="r1"):
            pass
        shipped = tracer.drain()
        assert len(tracer) == 0
        back = Span.from_dict(shipped[0])
        assert back.name == "x"
        assert back.category == "c"
        assert back.attrs == {"k": 1}
        assert back.trace_id == "r1"

    def test_ingest_merges_foreign_spans(self, tracer):
        foreign = Span(name="remote", category="serve", pid=4242, process="worker-1").to_dict()
        assert tracer.ingest([foreign]) == 1
        (span,) = tracer.spans()
        assert span.process == "worker-1"
        assert span.pid == 4242

    def test_ingest_can_relabel_process(self, tracer):
        foreign = Span(name="remote").to_dict()
        tracer.ingest([foreign], process="worker-3")
        assert tracer.spans()[0].process == "worker-3"


class TestNullTracer:
    def test_null_tracer_is_disabled_and_cheap(self):
        obs_trace.disable()
        tr = obs_trace.get_tracer()
        assert tr is NULL_TRACER
        assert not tr.enabled
        # The no-op span is one shared object: no allocation per call site.
        assert tr.span("a") is tr.span("b", category="c", k=1)
        with tr.span("a") as sp:
            sp.set(x=1)
        tr.point("p")
        tr.record("r", start_ns=0, duration_ns=0)
        assert tr.spans() == []
        assert tr.drain() == []
        assert tr.ingest([{"name": "x"}]) == 0
        assert len(tr) == 0
        assert list(tr) == []


class TestEnvInstall:
    def test_env_var_installs_exporting_tracer(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs_trace.ENV_TRACE, str(tmp_path / "out.json"))
        monkeypatch.setattr(obs_trace, "_env_checked", False)
        monkeypatch.setattr(obs_trace, "_active", NULL_TRACER)
        try:
            tr = obs_trace.get_tracer()
            assert tr.enabled
            assert obs_trace.get_tracer() is tr  # idempotent
        finally:
            obs_trace.disable()

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "disabled", "DISABLE", " Off "])
    def test_disabled_values_stay_null(self, value, monkeypatch):
        monkeypatch.setenv(obs_trace.ENV_TRACE, value)
        monkeypatch.setattr(obs_trace, "_env_checked", False)
        monkeypatch.setattr(obs_trace, "_active", NULL_TRACER)
        assert obs_trace.get_tracer() is NULL_TRACER
        assert obs_trace.env_trace_path() is None

    def test_install_disable_round_trip(self):
        tr = obs_trace.install(process="x")
        assert obs_trace.get_tracer() is tr
        obs_trace.disable()
        assert obs_trace.get_tracer() is NULL_TRACER
