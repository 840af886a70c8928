"""Front-end pieces that need no worker processes: validation, rejected
responses, the in-process zero-evaluation warm-start property, and the
worker's metrics frame."""

import io
import random
import socket

import pytest

from repro.data import generate_image
from repro.fleet import FleetError, PerforationFleet, rejected_response
from repro.fleet.protocol import encode_frame, read_frame
from repro.fleet.worker import WorkerSpec, build_server, serve_connection
from repro.obs.metrics import MetricsRegistry
from repro.serve import PerforationServer, ServeMetrics, ServeRequest, ServeResponse


class TestValidation:
    def test_constructor_rejects_bad_parameters(self):
        with pytest.raises(FleetError):
            PerforationFleet(workers=0)
        with pytest.raises(FleetError):
            PerforationFleet(max_pending=0)

    def test_there_is_no_transport_option(self):
        """Workers are reached over socket pairs only."""
        with pytest.raises(TypeError):
            PerforationFleet(transport="unix")

    def test_runtime_dir_is_accepted_and_ignored(self, tmp_path):
        """The fleet makes no directory, named or private."""
        fleet = PerforationFleet(workers=1, runtime_dir=tmp_path / "fleet")
        fleet.close()
        assert not (tmp_path / "fleet").exists()
        assert not hasattr(fleet, "runtime_dir")

    def test_closed_fleet_refuses_work(self):
        fleet = PerforationFleet(workers=1)
        fleet.close()
        with pytest.raises(FleetError):
            fleet.start()

    def test_close_is_idempotent(self):
        fleet = PerforationFleet(workers=1)
        fleet.close()
        fleet.close()
        assert fleet._links == []

    def test_empty_trace_never_spawns_workers(self):
        fleet = PerforationFleet(workers=1)
        try:
            assert fleet.serve_trace([]) == []
            assert fleet._links == []  # still cold — no processes, no sockets
        finally:
            fleet.close()


class TestStartupFailure:
    def test_a_worker_that_fails_to_start_tears_the_fleet_down(self, monkeypatch):
        """``Process.start()`` itself raises: the caller gets that error,
        and every socket-pair end is closed."""
        import multiprocessing.context as mp_context

        ends = []
        real_socketpair = socket.socketpair

        def recording_socketpair(*args):
            pair = real_socketpair(*args)
            ends.extend(pair)
            return pair

        def refuse(self):
            raise OSError("cannot start a worker")

        monkeypatch.setattr(socket, "socketpair", recording_socketpair)
        monkeypatch.setattr(mp_context.SpawnProcess, "start", refuse)
        fleet = PerforationFleet(workers=2)
        with pytest.raises(OSError, match="cannot start a worker"):
            fleet.start()
        assert ends and all(end.fileno() == -1 for end in ends)

    @pytest.mark.parametrize("persistent", [False, True])
    def test_a_respawned_spec_keeps_one_shot_faults_only_when_persistent(self, persistent):
        fleet = PerforationFleet(
            workers=2,
            fail_after={0: 3},
            error_on=(2,),
            hang_on=(5,),
            chaos_persistent=persistent,
        )
        try:
            first, respawn, other = (
                fleet._worker_spec(0),
                fleet._worker_spec(0, generation=1),
                fleet._worker_spec(1),
            )
        finally:
            fleet.close()
        assert (first.generation, respawn.generation) == (0, 1)
        assert (first.fail_after, first.hang_on) == (3, (5,))
        assert other.fail_after is None
        kept = (3, (5,)) if persistent else (None, ())
        assert (respawn.fail_after, respawn.hang_on) == kept
        assert first.error_on == respawn.error_on == (2,)

    def test_fleet_backend_names_the_workers_engine_backend(self):
        fleet = PerforationFleet(workers=1, backend="interpreter")
        try:
            spec = fleet._worker_spec(0)
        finally:
            fleet.close()
        assert fleet.backend_name == spec.backend == "interpreter"
        server, report = build_server(spec)
        assert server.backend is server.engine.backend
        assert report["backend"] == "interpreter"


class TestRejectedResponse:
    def test_rejected_response_mirrors_the_request(self):
        request = ServeRequest(
            request_id=3,
            app="gaussian",
            inputs=generate_image("natural", size=32, seed=1),
            error_budget=0.05,
            arrival_ms=12.0,
        )
        response = rejected_response(request)
        assert response.request_id == 3 and response.app == "gaussian"
        assert response.rejected is True
        assert response.output is None and response.error is None
        assert response.batch_size == 0
        assert response.completed_ms == 12.0
        assert response.metadata["reason"] == "admission-control"


def _six_app_calibration(size=64):
    """One calibration input per application, as perfbench's fleet-hot has."""
    from repro.apps import available_applications
    from repro.data import hotspot_single, single_image
    from repro.data.images import ImageClass

    return {
        app: [
            hotspot_single(size=size, seed=index)
            if app == "hotspot"
            else single_image(ImageClass.NATURAL, size=size, seed=index)
        ]
        for index, app in enumerate(available_applications())
    }


class TestWarmStartInProcess:
    """The exact worker-side construction, run in process: shipped ladders
    warm-start the controller with zero kernel evaluations."""

    def test_build_server_warm_start_runs_no_kernels(self, monkeypatch):
        from repro.api.engine import PerforationEngine
        from repro.serve.controller import OnlineController

        # Front-end-style calibration, shipped as the spec's ladders.
        calibration = {"gaussian": [generate_image("natural", size=32, seed=77)]}
        shipped = tuple(
            OnlineController(
                PerforationEngine(backend="codegen"), calibration_inputs=calibration
            ).ladder("gaussian")
        )

        # Worker-side construction with kernels booby-trapped: the warm
        # start must not evaluate a single one.
        app_type = type(PerforationEngine().resolve_app("gaussian"))

        def boom(*args, **kwargs):
            raise AssertionError("warm start must not evaluate kernels")

        monkeypatch.setattr(app_type, "approximate", boom)
        monkeypatch.setattr(app_type, "reference", boom)

        server, report = build_server(WorkerSpec(index=0, ladders={"gaussian": shipped}))
        assert report["ladders"] == ["gaussian"]
        assert report["calibrated"] == 0
        assert server.controller.ladder("gaussian") == list(shipped)
        assert server.controller.choose("gaussian", 0.05) is not None
        assert server.controller.calibrated == 0

    def test_an_application_without_a_ladder_is_calibrated_and_counted(self):
        server, report = build_server(WorkerSpec(index=0))
        assert report["ladders"] == [] and report["calibrated"] == 0
        ladder = server.controller.ladder("inversion")  # on its default input
        assert ladder[-1].config.label == "Accurate"
        assert server.controller.calibrated == 1

    def test_spec_ships_ladders_not_calibration_inputs(self, monkeypatch):
        """A six-app spec stays far below the 64 KiB pipe buffer, so
        ``Process.start()`` never blocks on the child's imports."""
        import asyncio
        import pickle

        from repro.fleet.frontend import _WorkerLink

        specs = []

        async def no_worker(self, spec):
            specs.append(spec)
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"type": "hello", "worker": spec.index}))
            return reader, None

        monkeypatch.setattr(_WorkerLink, "spawn", no_worker)
        calibration = _six_app_calibration()
        fleet = PerforationFleet(workers=1, calibration_inputs=calibration)
        try:
            fleet.start()
        finally:
            fleet.close()
        (spec,) = specs
        assert sorted(spec.ladders) == sorted(calibration)
        assert all(ladder[-1].config.label == "Accurate" for ladder in spec.ladders.values())
        assert len(pickle.dumps(spec)) < 16 * 1024
        assert len(pickle.dumps(calibration)) > 64 * 1024  # what it no longer carries


class _Connection:
    """An in-memory front-end connection: scripted frames in, frames out."""

    def __init__(self, *frames: dict) -> None:
        self._incoming = io.BytesIO(b"".join(encode_frame(f) for f in frames))
        self._outgoing = io.BytesIO()

    def read(self, n: int) -> bytes:
        return self._incoming.read(n)

    def write(self, data: bytes) -> None:
        self._outgoing.write(data)

    def flush(self) -> None:
        pass

    def sent(self) -> list[dict]:
        stream = io.BytesIO(self._outgoing.getvalue())
        frames = []
        while (frame := read_frame(stream)) is not None:
            frames.append(frame)
        return frames


class TestMetricsFrame:
    def test_frame_stays_small_after_many_responses(self):
        """10**5 responses in serve-bench ranges fit a metrics frame of
        under 64 KiB: the frame carries one registry of counters and
        quantile sketches, not per-request samples."""
        server = PerforationServer()
        rng = random.Random(15)
        apps = ("gaussian", "sobel3", "sobel5", "median", "inversion", "hotspot")
        labels = ("Accurate", "Rows1:NN", "Rows1:LI", "Rows2:NN", "Cols1:NN", "Stencil1:NN")
        responses = 10**5
        served = 0
        while served < responses:
            size = min(rng.randint(1, 8), responses - served)
            server.metrics.record_batch(size)
            service_ms = rng.uniform(0.5, 500.0)
            for _ in range(size):
                budget = rng.choice((0.01, 0.025, 0.05))
                error = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, budget)
                response = ServeResponse(
                    request_id=served,
                    app=rng.choice(apps),
                    config_label=rng.choice(labels),
                    output=None,
                    error=error,
                    cache_hit=rng.random() < 0.3,
                    batch_size=size,
                    queue_delay_ms=0.0 if rng.random() < 0.1 else rng.uniform(0.0, 50.0),
                    service_time_ms=service_ms,
                )
                server.metrics.record_response(response, budget)
                served += 1

        connection = _Connection({"type": "metrics"})
        serve_connection(connection, server, {"worker": 0})
        hello, frame = connection.sent()
        assert hello["type"] == "hello" and frame["type"] == "metrics"
        assert len(encode_frame(frame)) < 64 * 1024
        shipped = ServeMetrics.view(MetricsRegistry.from_dict(frame["metrics"]))
        assert shipped.completed == responses
        assert shipped.deterministic_snapshot() == server.metrics.deterministic_snapshot()
