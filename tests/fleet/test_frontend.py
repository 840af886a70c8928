"""Front-end pieces that need no worker processes: validation, rejected
responses, and the in-process zero-evaluation warm-start property."""

import pytest

from repro.data import generate_image
from repro.fleet import FleetError, PerforationFleet, rejected_response
from repro.fleet.worker import WorkerSpec, build_server
from repro.serve import ServeRequest


class TestValidation:
    def test_constructor_rejects_bad_parameters(self):
        with pytest.raises(FleetError):
            PerforationFleet(workers=0)
        with pytest.raises(FleetError):
            PerforationFleet(transport="carrier-pigeon")
        with pytest.raises(FleetError):
            PerforationFleet(max_pending=0)

    def test_closed_fleet_refuses_work(self):
        fleet = PerforationFleet(workers=1)
        fleet.close()
        with pytest.raises(FleetError):
            fleet.start()

    def test_close_is_idempotent_and_removes_runtime_dir(self):
        fleet = PerforationFleet(workers=1)
        runtime_dir = fleet.runtime_dir
        assert runtime_dir.exists()
        fleet.close()
        fleet.close()
        assert not runtime_dir.exists()

    def test_empty_trace_never_spawns_workers(self):
        fleet = PerforationFleet(workers=1)
        try:
            assert fleet.serve_trace([]) == []
            assert fleet._procs == []  # still cold — no processes, no sockets
        finally:
            fleet.close()


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
        assert not response.within_budget
        assert response.batch_size == 0
        assert response.completed_ms == 12.0
        assert response.metadata["reason"] == "admission-control"


class TestWarmStartInProcess:
    """The exact worker-side construction, run in process: a warm tuning
    database restores the ladders with zero kernel evaluations."""

    def test_build_server_warm_start_runs_no_kernels(self, tmp_path, monkeypatch):
        from repro.api.engine import PerforationEngine
        from repro.autotune import Tuner, TuningDB
        from repro.serve.controller import OnlineController

        image = generate_image("natural", size=32, seed=77)
        calibration = {"gaussian": [image]}
        db_path = tmp_path / "tuning-db"

        # Front-end-style warm-up: calibrate once, persist to the DB.  The
        # backend is part of the tuning key, so it must match the worker's.
        seed_engine = PerforationEngine(backend="codegen")
        OnlineController(
            seed_engine,
            calibration_inputs=calibration,
            tuner=Tuner(seed_engine, db=TuningDB(db_path)),
        ).ladder("gaussian")

        # Worker-style construction with kernels booby-trapped: warm start
        # must not evaluate a single one.
        probe_engine = PerforationEngine()
        app_type = type(probe_engine.resolve_app("gaussian"))

        def boom(*args, **kwargs):
            raise AssertionError("warm start must not evaluate kernels")

        monkeypatch.setattr(app_type, "approximate", boom)
        monkeypatch.setattr(app_type, "reference", boom)

        spec = WorkerSpec(
            index=0,
            address=str(tmp_path / "unused.sock"),
            calibration_inputs=calibration,
            warm_apps=("gaussian",),
            tuning_db=str(db_path),
        )
        server, report = build_server(spec)
        assert report["db"]["misses"] == 0
        assert report["db"]["puts"] == 0
        assert report["db"]["hits"] >= 1
        ladder = server.controller.ladder("gaussian")
        assert ladder[-1].config.label == "Accurate"
        assert len(ladder) > 1

    def test_worker_database_handle_is_readonly(self, tmp_path):
        spec = WorkerSpec(
            index=0,
            address=str(tmp_path / "unused.sock"),
            tuning_db=str(tmp_path / "tuning-db"),
        )
        server, _ = build_server(spec)
        assert server.controller.tuner.db.readonly is True
