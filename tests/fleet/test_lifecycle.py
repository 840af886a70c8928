"""Fleet lifecycle regressions: environment hygiene, partial-startup
teardown, and metrics consistency across repeated traces.

The environment tests monkeypatch the spawn path away so they run
without any worker processes (fast tier); the teardown and multi-trace
tests spawn real workers (slow tier).
"""

import asyncio
import os

import pytest

from repro.data import generate_image
from repro.fleet import FleetError, PerforationFleet
from repro.fleet.frontend import _WorkerLink
from repro.fleet.protocol import encode_frame
from repro.serve import TraceSpec, generate_trace


def _start_without_workers(monkeypatch, fleet):
    """Run start() with every worker replaced by a stream holding its hello."""

    async def no_worker(self, spec):
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame({"type": "hello", "worker": spec.index}))
        return reader, None

    monkeypatch.setattr(_WorkerLink, "spawn", no_worker)
    fleet.start()


class TestEnvironmentRestored:
    def test_no_override_means_no_env_mutation(self, monkeypatch):
        """Workers inherit ``REPRO_CODEGEN_CACHE`` from the front-end's
        environment; the fleet itself never sets it."""
        monkeypatch.delenv("REPRO_CODEGEN_CACHE", raising=False)
        fleet = PerforationFleet(workers=1)
        _start_without_workers(monkeypatch, fleet)
        assert "REPRO_CODEGEN_CACHE" not in os.environ
        fleet.close()
        assert "REPRO_CODEGEN_CACHE" not in os.environ


@pytest.mark.slow
class TestPartialStartupTeardown:
    def test_spawn_failure_terminates_already_spawned_workers(
        self, monkeypatch, tmp_path
    ):
        """Worker 1's socket path is squatted by a regular file, so its
        bind fails after worker 0 already spawned; start() must tear the
        survivor down rather than leak it."""
        runtime = tmp_path / "rt"
        runtime.mkdir()
        (runtime / "worker-1.sock").write_text("squatter")

        procs = []
        original = _WorkerLink.spawn

        async def spy(self, spec):
            try:
                return await original(self, spec)
            finally:
                procs.append(self.proc)

        monkeypatch.setattr(_WorkerLink, "spawn", spy)
        fleet = PerforationFleet(workers=2, runtime_dir=runtime)
        with pytest.raises(FleetError):
            fleet.start()

        assert len(procs) == 2  # worker 0 really was spawned
        for proc in procs:
            assert not proc.is_alive()
        assert fleet._links == []

    def test_owned_runtime_dir_removed_on_startup_failure(self, monkeypatch):
        """The private repro-fleet-* temp dir must not leak when start()
        fails before any worker exists."""

        async def boom(self, spec):
            raise FleetError("injected spawn failure")

        monkeypatch.setattr(_WorkerLink, "spawn", boom)
        fleet = PerforationFleet(workers=1)
        runtime_dir = fleet.runtime_dir
        assert runtime_dir.exists()
        with pytest.raises(FleetError, match="injected spawn failure"):
            fleet.start()
        assert not runtime_dir.exists()


@pytest.mark.slow
class TestRepeatedTraces:
    def test_metrics_consistent_across_repeated_traces(self):
        """Wall time accumulates with shed/completed counts, so the
        throughput of a multi-trace fleet divides totals by the total
        wall — not by the last trace's."""
        spec = TraceSpec(
            apps=("gaussian",), requests=6, size=32, inputs_per_app=2, seed=5
        )
        trace = generate_trace(spec)
        calibration = {"gaussian": [generate_image("natural", size=32, seed=77)]}
        with PerforationFleet(
            workers=1, max_batch=4, calibration_inputs=calibration
        ) as fleet:
            fleet.serve_trace(trace)
            first = fleet.metrics()
            fleet.serve_trace(trace)
            second = fleet.metrics()

        assert first.completed == len(trace)
        assert second.completed == 2 * len(trace)
        assert first.wall_time_s is not None and second.wall_time_s is not None
        assert second.wall_time_s > first.wall_time_s  # accumulates, not overwrites
        assert second.shed == 0 and second.failed == 0
        assert second.completed + second.shed + second.failed == 2 * len(trace)
