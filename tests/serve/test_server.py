"""End-to-end serving: budgets, batching parity, fallback, determinism."""

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.data import generate_image
from repro.serve import (
    ControllerPolicy,
    PerforationServer,
    ServeRequest,
    TraceSpec,
    generate_trace,
)

SPEC = TraceSpec(requests=14, size=32, inputs_per_app=2, seed=31)


def _calibration_inputs(size=32):
    from repro.data import hotspot_single

    inputs = {}
    for app in SPEC.apps:
        if app == "hotspot":
            inputs[app] = [hotspot_single(size=size, seed=77)]
        else:
            inputs[app] = [generate_image("natural", size=size, seed=77)]
    return inputs


def _server(**kw):
    defaults = dict(
        engine=PerforationEngine(backend="codegen"),
        backend="codegen",
        max_batch=4,
        calibration_inputs=_calibration_inputs(),
    )
    defaults.update(kw)
    return PerforationServer(**defaults)


@pytest.fixture(scope="module")
def served():
    server = _server()
    responses = server.run_trace(generate_trace(SPEC))
    return server, responses


class TestServing:
    def test_every_request_completes_within_budget(self, served):
        server, responses = served
        trace = generate_trace(SPEC)
        assert sorted(r.request_id for r in responses) == [r.request_id for r in trace]
        budgets = {r.request_id: r.error_budget for r in trace}
        for response in responses:
            assert response.within_budget
            assert response.error is not None
            assert response.error <= budgets[response.request_id]
        assert server.metrics.completed == len(trace)

    def test_micro_batches_form(self, served):
        server, responses = served
        assert server.metrics.batches < server.metrics.completed
        assert max(r.batch_size for r in responses) > 1

    def test_served_outputs_match_direct_execution(self, served):
        """A non-fallback response equals run_compiled with the batch's config."""
        server, responses = served
        trace = {r.request_id: r for r in generate_trace(SPEC)}
        engine = PerforationEngine(backend="codegen")
        checked = 0
        for response in responses:
            if response.fallback:
                continue
            request = trace[response.request_id]
            config = next(
                entry.config
                for entry in server.controller.ladder(response.app)
                if entry.config.label == response.config_label
            )
            expected = engine.run_compiled(response.app, request.inputs, config)
            np.testing.assert_array_equal(expected, response.output)
            checked += 1
            if checked >= 4:  # a sample is enough; parity has its own suite
                break
        assert checked > 0

    def test_deterministic_replay(self, served):
        server, responses = served
        replay = _server()
        replayed = replay.run_trace(generate_trace(SPEC))
        assert (
            server.metrics.deterministic_snapshot()
            == replay.metrics.deterministic_snapshot()
        )
        by_id = {r.request_id: r for r in responses}
        for response in replayed:
            first = by_id[response.request_id]
            assert response.config_label == first.config_label
            assert response.batch_size == first.batch_size
            assert response.cache_hit == first.cache_hit
            np.testing.assert_array_equal(response.output, first.output)


class TestCachingAndFallback:
    def test_repeated_input_hits_the_cache(self):
        server = _server(max_batch=1)
        image = generate_image("natural", size=32, seed=5)
        first = server.submit(
            ServeRequest(0, "gaussian", image, error_budget=0.05, arrival_ms=0.0)
        ) + server.drain(0.0)
        second = server.submit(
            ServeRequest(1, "gaussian", image, error_budget=0.05, arrival_ms=1.0)
        ) + server.drain(1.0)
        assert not first[0].cache_hit
        assert second[0].cache_hit
        np.testing.assert_array_equal(first[0].output, second[0].output)
        assert server.cache.stats.hits == 1

    def test_strict_mode_falls_back_to_accurate(self):
        """An unsatisfiable budget forces the accurate reference output."""
        server = _server(
            max_batch=1,
            policy=ControllerPolicy(min_dwell=100),
        )
        # Make the controller believe a violating config is fine, so the
        # *measured* error exceeds the tiny budget at serving time.
        from repro.core.config import ROWS2_NN
        from repro.serve.controller import LadderEntry

        budget = 1e-9
        server.controller._ladders["gaussian"] = [
            LadderEntry(config=ROWS2_NN, mean_error=0.0, speedup=3.0),
        ]
        image = generate_image("natural", size=32, seed=5)
        [response] = server.submit(
            ServeRequest(0, "gaussian", image, error_budget=budget)
        ) + server.drain(0.0)
        assert response.fallback
        assert response.within_budget
        assert response.error == 0.0
        reference = server.engine.reference("gaussian", image)
        np.testing.assert_array_equal(response.output, reference)
        assert server.metrics.violations == 1
        assert server.metrics.fallbacks == 1

    def test_monitoring_off_serves_unchecked(self):
        server = _server(max_batch=1, monitor=False)
        image = generate_image("natural", size=32, seed=5)
        [response] = server.submit(
            ServeRequest(0, "gaussian", image, error_budget=1e-9)
        ) + server.drain(0.0)
        assert response.error is None
        assert response.within_budget  # vacuously: nothing was measured
        assert not response.fallback

    def test_intra_batch_duplicates_execute_once(self):
        """Identical inputs in one micro-batch run as a single stacked lane set."""
        server = _server(max_batch=4)
        launched = []
        real = server.engine.run_compiled_batch

        def spy(app, inputs_batch, *args, **kwargs):
            launched.append(len(list(inputs_batch)))
            return real(app, inputs_batch, *args, **kwargs)

        server.engine.run_compiled_batch = spy
        image = generate_image("natural", size=32, seed=5)
        requests = [
            ServeRequest(i, "gaussian", image, error_budget=0.05, arrival_ms=float(i))
            for i in range(3)
        ]
        responses = server.run_trace(requests)
        assert len(responses) == 3
        assert launched == [1]  # one distinct input executed, fanned out
        assert all(r.batch_size == 3 for r in responses)
        for response in responses[1:]:
            np.testing.assert_array_equal(response.output, responses[0].output)

    def test_cache_disabled(self):
        server = _server(max_batch=1, cache_capacity=0)
        assert server.cache is None
        image = generate_image("natural", size=32, seed=5)
        for request_id in range(2):
            [response] = server.submit(
                ServeRequest(request_id, "gaussian", image, error_budget=0.05)
            ) + server.drain(0.0)
            assert not response.cache_hit
