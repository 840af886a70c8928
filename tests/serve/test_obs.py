"""Serving-layer observability: request spans, metrics registry, off-by-default."""

import pytest

from repro.api import PerforationEngine
from repro.core.perforator import build_kernel
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
        max_batch=4,
        calibration_inputs=_calibration_inputs(),
    )


@pytest.fixture()
def traced():
    tracer = obs_trace.install(process="test-serve")
    build_kernel.cache_clear()  # count this server's kernel builds only
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
        calibrations = [s for s in tracer.spans() if s.name == "calibration.calibrate"]
        # Calibration is lazy: only apps the trace actually exercised.
        assert {s.attrs["app"] for s in calibrations} == {r.app for r in responses}
        assert all(s.category == "calibrate" for s in calibrations)
        assert all(s.attrs["configs"] > 0 for s in calibrations)

    def test_cold_builds_traced(self, traced):
        tracer, _, _ = traced
        builds = sorted(
            (s for s in tracer.spans() if s.name == "perforator.build"), key=lambda s: s.start_ns
        )
        assert builds and all(s.category == "perforator" for s in builds)
        pairs = [(s.attrs["kernel"], s.attrs["config"]) for s in builds]
        assert len(pairs) == len(set(pairs)), "each (kernel, config) is built once"
        # Each kernel's first build parses its source; the later ones reuse it.
        for kernel in {k for k, _ in pairs}:
            memoized = [s.attrs["memoized"] for s in builds if s.attrs["kernel"] == kernel]
            assert memoized == [False] + [True] * (len(memoized) - 1)


class TestObservabilityRegistry:
    def test_registry_mirrors_serve_metrics(self, traced):
        tracer, server, responses = traced
        registry = server.observability()
        snap = registry.snapshot()
        assert snap["serve.completed"] == len(responses)
        assert snap["serve.batches"] >= 1
        assert snap["serve.queue_delay_ms.count"] == len(responses)
        assert snap["serve.service_time_ms.count"] == len(responses)
        assert snap["serve.cache_hits"] == server.metrics.cache_hits
        # Each call starts from a copy of the server's registry, so the
        # absorbed cache statistics never accumulate across calls.
        assert server.observability().snapshot() == snap
        assert "serve.result_cache.hit_rate" in snap
        assert "engine.reference_cache.hits" in snap
        assert "engine.timing_cache.hits" in snap
        # One kernel build per distinct (app, config) launched; every later
        # launch of the pair, by any server of the process, is a hit.
        launches = [
            (s.attrs["app"], s.attrs["config"])
            for s in tracer.spans()
            if s.name == "serve.batch" and s.attrs["launched"]
        ]
        pairs = len(set(launches))
        assert snap["kernel.build_cache.misses"] == pairs
        assert snap["kernel.build_cache.hits"] == len(launches) - pairs
        again = _server()
        again.run_trace(generate_trace(SPEC))
        warm = again.observability().snapshot()
        assert warm["kernel.build_cache.misses"] == pairs
        assert warm["kernel.build_cache.hits"] == 2 * len(launches) - pairs
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


class TestLaunchBackend:
    """A server launches on its engine's backend, and on no other."""

    TRACE = TraceSpec(
        apps=("gaussian", "inversion", "hotspot"), requests=9, size=16, inputs_per_app=2, seed=26
    )

    def _serve(self, backend):
        tracer = obs_trace.install(process=f"test-{backend}")
        try:
            server = PerforationServer(
                PerforationEngine(backend=backend),
                max_batch=4,
                calibration_inputs=_calibration_inputs(size=16),
            )
            responses = server.run_trace(generate_trace(self.TRACE))
            spans = tracer.spans()
        finally:
            obs_trace.disable()
        launched = {s.attrs["backend"] for s in spans if s.name.startswith("clsim.launch")}
        served = [
            (r.request_id, r.config_label, r.error, r.fallback, r.cache_hit, r.output.tobytes())
            for r in responses
        ]
        return server, launched, served

    def test_an_interpreter_engine_serves_on_the_interpreter_bit_identically(self):
        server, launched, served = self._serve("interpreter")
        assert server.backend is server.engine.backend
        assert launched == {"interpreter"}
        codegen, codegen_launched, reference = self._serve("codegen")
        assert codegen.backend is codegen.engine.backend
        assert codegen_launched == {"codegen"}
        assert len(served) == self.TRACE.requests
        assert served == reference
