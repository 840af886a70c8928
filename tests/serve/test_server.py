"""End-to-end serving: budgets, batching parity, fallback, determinism."""

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.data import generate_image
from repro.serve import PerforationServer, ServeRequest, TraceSpec, generate_trace

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


class TestEngineBackend:
    """The engine is the one place a server's backend is chosen."""

    def test_default_server_launches_on_a_codegen_engine(self):
        server = PerforationServer()
        assert server.backend.name == "codegen"
        assert server.backend is server.engine.backend

    @pytest.mark.parametrize("backend", ["interpreter", "codegen"])
    def test_server_backend_is_its_engine_backend(self, backend):
        server = PerforationServer(PerforationEngine(backend=backend))
        assert server.backend is server.engine.backend
        assert server.backend.name == backend


class TestServing:
    def test_every_request_completes_within_budget(self, served):
        server, responses = served
        trace = generate_trace(SPEC)
        assert sorted(r.request_id for r in responses) == [r.request_id for r in trace]
        budgets = {r.request_id: r.error_budget for r in trace}
        for response in responses:
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


class TestMonitoring:
    """The server is the one quality-monitored runtime: every served output's
    measured error reaches its (application, budget) stream."""

    @staticmethod
    def _spy_observations(server):
        seen = []
        real = server.controller.observe

        def spy(app_name, budget, error):
            seen.append((app_name, budget, error))
            real(app_name, budget, error)

        server.controller.observe = spy
        return seen

    def test_measured_error_feeds_the_stream(self):
        server = _server(max_batch=1)
        seen = self._spy_observations(server)
        image = generate_image("natural", size=32, seed=5)
        [response] = server.submit(
            ServeRequest(0, "gaussian", image, error_budget=0.05)
        ) + server.drain(0.0)
        assert not response.fallback
        assert 0.0 < response.error <= 0.05
        assert seen == [("gaussian", 0.05, response.error)]

    def test_cache_hits_are_monitored_too(self):
        server = _server(max_batch=1)
        seen = self._spy_observations(server)
        image = generate_image("natural", size=32, seed=5)
        responses = []
        for request_id in range(2):
            responses += server.submit(
                ServeRequest(request_id, "gaussian", image, error_budget=0.05)
            ) + server.drain(0.0)
        assert [r.cache_hit for r in responses] == [False, True]
        assert seen == [("gaussian", 0.05, responses[0].error)] * 2

    def test_unsatisfiable_budget_serves_the_accurate_rung(self):
        """No calibrated rung is admissible under a tiny budget, so the
        stream runs the accurate kernel: error 0, the reference output, no
        fallback needed."""
        server = _server(max_batch=1)
        image = generate_image("natural", size=32, seed=5)
        [response] = server.submit(
            ServeRequest(0, "gaussian", image, error_budget=1e-9)
        ) + server.drain(0.0)
        assert response.config_label == "Accurate"
        assert response.error == 0.0
        assert not response.fallback
        np.testing.assert_array_equal(response.output, server.engine.reference("gaussian", image))
        assert server.metrics.violations == 0

    def test_violations_tighten_one_rung_at_a_time(self, monkeypatch):
        """Each violating request steps its stream to the fastest rung with a
        strictly lower calibrated error, never further."""
        from repro.api import CalibrationEntry
        from repro.core.config import ACCURATE_CONFIG, ROWS1_LI, ROWS1_NN, ROWS2_NN
        from repro.serve import server as server_module

        server = _server(max_batch=1)
        server.controller.ladders["gaussian"] = [  # fastest-first
            CalibrationEntry(ROWS1_NN, mean_error=0.045, max_error=0.05, speedup=2.0),
            CalibrationEntry(ROWS2_NN, mean_error=0.03, max_error=0.04, speedup=1.6),
            CalibrationEntry(ROWS1_LI, mean_error=0.01, max_error=0.02, speedup=1.4),
            CalibrationEntry(ACCURATE_CONFIG, mean_error=0.0, max_error=0.0, speedup=1.0),
        ]
        # Every measured error blows the budget.
        monkeypatch.setattr(server_module, "compute_error", lambda *args: 1.0)
        responses = []
        for request_id in range(4):
            image = generate_image("natural", size=32, seed=40 + request_id)
            responses += server.submit(
                ServeRequest(request_id, "gaussian", image, error_budget=0.06)
            ) + server.drain(0.0)
        assert [r.config_label for r in responses] == [
            "Rows1:NN", "Rows2:NN", "Rows1:LI", "Accurate",
        ]
        assert all(r.fallback and r.error == 0.0 for r in responses)
        assert server.metrics.violations == 4
        assert server.controller.snapshot()["gaussian@0.06"]["tightened"] == 3


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
        server = _server(max_batch=1)
        # Make the controller believe a violating config is fine, so the
        # *measured* error exceeds the tiny budget at serving time.
        from repro.core.config import ROWS2_NN
        from repro.api import CalibrationEntry

        budget = 1e-9
        server.controller.ladders["gaussian"] = [
            CalibrationEntry(config=ROWS2_NN, mean_error=0.0, max_error=0.0, speedup=3.0),
        ]
        image = generate_image("natural", size=32, seed=5)
        [response] = server.submit(
            ServeRequest(0, "gaussian", image, error_budget=budget)
        ) + server.drain(0.0)
        assert response.fallback
        assert response.error == 0.0
        reference = server.engine.reference("gaussian", image)
        np.testing.assert_array_equal(response.output, reference)
        assert server.metrics.violations == 1
        assert server.metrics.fallbacks == 1

    def test_label_colliding_rungs_do_not_share_results(self):
        """Two rungs that share the figure label ``Rows1:NN`` but differ in
        work group are different kernels: a result served on one is no
        cache hit for the other, and the second rung really launches."""
        from repro.api import CalibrationEntry
        from repro.core.config import ACCURATE_CONFIG, ROWS1_NN

        wide, narrow = ROWS1_NN.with_work_group((16, 16)), ROWS1_NN.with_work_group((8, 8))
        server = _server(max_batch=1)
        # Budget 0.5 admits the wide rung (0.2 * 1.25), budget 0.1 only the
        # narrow one; both kernels measure well inside either budget.
        server.controller.ladders["gaussian"] = [
            CalibrationEntry(config=wide, mean_error=0.2, max_error=0.2, speedup=3.0),
            CalibrationEntry(config=narrow, mean_error=0.01, max_error=0.01, speedup=2.0),
            CalibrationEntry(config=ACCURATE_CONFIG, mean_error=0.0, max_error=0.0, speedup=1.0),
        ]
        launched = []
        real = server.engine.run_compiled_batch

        def spy(app, inputs_batch, config, *args, **kwargs):
            launched.append(config)
            return real(app, inputs_batch, config, *args, **kwargs)

        server.engine.run_compiled_batch = spy
        image = generate_image("natural", size=64, seed=5)
        [loose] = server.submit(
            ServeRequest(0, "gaussian", image, error_budget=0.5, arrival_ms=0.0)
        ) + server.drain(0.0)
        [tight] = server.submit(
            ServeRequest(1, "gaussian", image, error_budget=0.1, arrival_ms=1.0)
        ) + server.drain(1.0)
        assert launched == [wide, narrow]
        assert not loose.cache_hit and not tight.cache_hit
        assert not loose.fallback and not tight.fallback
        direct = PerforationEngine(backend="codegen")
        np.testing.assert_array_equal(loose.output, direct.run_compiled("gaussian", image, wide))
        np.testing.assert_array_equal(tight.output, direct.run_compiled("gaussian", image, narrow))
        assert not np.array_equal(loose.output, tight.output)

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

    @pytest.mark.parametrize(
        "budget, cache_capacity",
        [(1.0, 256), (1e-9, 256), (1.0, 0)],
        ids=["served", "fallbacks", "no-cache"],
    )
    def test_each_served_input_is_digested_once(self, monkeypatch, budget, cache_capacity):
        """The result-cache key and every reference lookup, a fallback's
        included, share one fingerprint: N distinct requests cost N array
        digests."""
        import hashlib
        from types import SimpleNamespace

        import repro.api.cache as api_cache
        from repro.api import CalibrationEntry
        from repro.core.config import ROWS2_NN

        server = _server(cache_capacity=cache_capacity)
        # One rung the controller trusts with any budget: its outputs are
        # within 1.0, and a 1e-9 budget makes every one a violation that
        # the reference replaces.
        server.controller.ladders["gaussian"] = [
            CalibrationEntry(config=ROWS2_NN, mean_error=0.0, max_error=0.0, speedup=3.0),
        ]
        digests = []

        def sha1(*args):
            digests.append(args)
            return hashlib.sha1(*args)

        monkeypatch.setattr(api_cache, "hashlib", SimpleNamespace(sha1=sha1))
        requests = [
            ServeRequest(
                index,
                "gaussian",
                generate_image("natural", size=32, seed=index),
                error_budget=budget,
                arrival_ms=float(index),
            )
            for index in range(50)
        ]
        responses = server.run_trace(requests)
        assert len(responses) == len(requests)
        assert server.metrics.fallbacks == (len(requests) if budget < 1.0 else 0)
        assert len(digests) == len(requests)

    def test_cache_disabled(self):
        server = _server(max_batch=1, cache_capacity=0)
        assert server.cache is None
        image = generate_image("natural", size=32, seed=5)
        for request_id in range(2):
            [response] = server.submit(
                ServeRequest(request_id, "gaussian", image, error_budget=0.05)
            ) + server.drain(0.0)
            assert not response.cache_hit
