"""Serving-layer observability: request spans, metrics registry, off-by-default."""

import pytest

from repro.api import PerforationEngine
from repro.obs import trace as obs_trace
from repro.serve import PerforationServer, TraceSpec, generate_trace

SPEC = TraceSpec(requests=10, size=32, inputs_per_app=2, seed=19)


def _calibration_inputs(size=32):
    from repro.data import generate_image, hotspot_single

    inputs = {}
    for app in SPEC.apps:
        if app == "hotspot":
            inputs[app] = [hotspot_single(size=size, seed=77)]
        else:
            inputs[app] = [generate_image("natural", size=size, seed=77)]
    return inputs


def _server():
    return PerforationServer(
        engine=PerforationEngine(backend="codegen"),
        backend="codegen",
        max_batch=4,
        calibration_inputs=_calibration_inputs(),
    )


@pytest.fixture()
def traced():
    tracer = obs_trace.install(process="test-serve")
    server = _server()
    responses = server.run_trace(generate_trace(SPEC))
    yield tracer, server, responses
    obs_trace.disable()


class TestServeSpans:
    def test_every_request_gets_a_span_with_trace_id(self, traced):
        tracer, server, responses = traced
        requests = [s for s in tracer.spans() if s.name == "serve.request"]
        assert len(requests) == len(responses)
        assert {s.trace_id for s in requests} == {f"r{r.request_id}" for r in responses}
        for span in requests:
            assert span.category == "serve"
            assert span.attrs["app"] in SPEC.apps
            assert "config" in span.attrs
            assert span.attrs["batch_id"] >= 1
            assert span.duration_ns >= 0

    def test_batch_spans_parent_launches(self, traced):
        tracer, _, _ = traced
        spans = tracer.spans()
        batches = {s.span_id: s for s in spans if s.name == "serve.batch"}
        assert batches
        launches = [s for s in spans if s.name == "clsim.launch"]
        assert launches, "executor launches should be traced under serve batches"
        for launch in launches:
            assert launch.parent_id in batches
        requests = [s for s in spans if s.name == "serve.request"]
        for request in requests:
            assert request.parent_id in batches

    def test_batch_spans_carry_cache_split(self, traced):
        tracer, server, _ = traced
        batches = [s for s in tracer.spans() if s.name == "serve.batch"]
        assert sum(s.attrs["size"] for s in batches) == server.metrics.completed
        assert sum(s.attrs["cache_hits"] for s in batches) == server.metrics.cache_hits

    def test_calibration_sweeps_traced(self, traced):
        tracer, _, responses = traced
        calibrations = [s for s in tracer.spans() if s.name == "session.calibrate"]
        # Calibration is lazy: only apps the trace actually exercised.
        assert {s.attrs["app"] for s in calibrations} == {r.app for r in responses}
        assert all(s.category == "calibrate" for s in calibrations)
        assert all(s.attrs["configs"] > 0 for s in calibrations)


class TestObservabilityRegistry:
    def test_registry_mirrors_serve_metrics(self, traced):
        _, server, responses = traced
        registry = server.observability()
        snap = registry.snapshot()
        assert snap["serve.completed"] == len(responses)
        assert snap["serve.batches"] >= 1
        assert snap["serve.latency_ms.count"] == len(responses)
        assert snap["serve.cache_hits"] == server.metrics.cache_hits
        assert "serve.result_cache.hit_rate" in snap
        assert "engine.result_cache.hits" in snap
        # Wire round-trip (what fleet metrics frames ship).
        from repro.obs.metrics import MetricsRegistry

        back = MetricsRegistry.from_dict(registry.to_dict())
        assert back.snapshot() == snap


class TestDisabledByDefault:
    def test_no_spans_without_install(self):
        obs_trace.disable()
        server = _server()
        responses = server.run_trace(generate_trace(SPEC))
        assert len(responses) == SPEC.requests
        assert obs_trace.get_tracer().spans() == []

    def test_results_identical_with_and_without_tracing(self):
        obs_trace.disable()
        plain = _server().run_trace(generate_trace(SPEC))
        obs_trace.install(process="t")
        try:
            traced = _server().run_trace(generate_trace(SPEC))
        finally:
            obs_trace.disable()
        assert [r.request_id for r in plain] == [r.request_id for r in traced]
        for a, b in zip(plain, traced):
            assert a.error == b.error
            assert a.config_label == b.config_label
