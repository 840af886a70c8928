"""Fleet lifecycle regressions: environment hygiene, partial-startup
teardown, and metrics consistency across repeated traces.

The environment tests monkeypatch the spawn path away so they run
without any worker processes (fast tier); the teardown and multi-trace
tests spawn real workers (slow tier).
"""

import asyncio
import dataclasses
import os
import time

import pytest

from repro.data import generate_image
from repro.fleet import FleetError, PerforationFleet
import repro.fleet.frontend as frontend
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
        """Workers inherit the front-end's environment as it is; starting
        and closing the fleet never changes it."""
        before = dict(os.environ)
        fleet = PerforationFleet(workers=1)
        _start_without_workers(monkeypatch, fleet)
        assert dict(os.environ) == before
        fleet.close()
        assert dict(os.environ) == before


@pytest.mark.slow
class TestPartialStartupTeardown:
    def test_spawn_failure_terminates_already_spawned_workers(self, monkeypatch):
        """Worker 1's spec names an unknown device, so its server fails to
        build after worker 0 already spawned; start() must tear the
        survivor down rather than leak it."""
        worker_spec = PerforationFleet._worker_spec

        def unknown_device_for_worker_1(fleet, index, generation=0):
            spec = worker_spec(fleet, index, generation)
            return dataclasses.replace(spec, device="no-such-device") if index == 1 else spec

        procs = []
        original = _WorkerLink.spawn

        async def spy(self, spec):
            try:
                return await original(self, spec)
            finally:
                procs.append(self.proc)

        monkeypatch.setattr(PerforationFleet, "_worker_spec", unknown_device_for_worker_1)
        monkeypatch.setattr(_WorkerLink, "spawn", spy)
        fleet = PerforationFleet(workers=2)
        with pytest.raises(FleetError, match="worker 1: startup failed"):
            fleet.start()

        assert len(procs) == 2  # worker 0 really was spawned
        for proc in procs:
            assert not proc.is_alive()
        assert fleet._links == []

    def test_a_worker_that_exits_without_hello_fails_start_at_once(self, monkeypatch):
        """The front-end closes its copy of the worker's end right after
        ``start()``, so a worker that exits before saying hello is an EOF
        at once, not a wait for the spawn timeout.  ``slice`` stands in for
        ``worker_main``: it takes the spec and the socket and returns."""
        monkeypatch.setattr(frontend, "worker_main", slice)
        fleet = PerforationFleet(workers=1)
        started = time.monotonic()
        with pytest.raises(FleetError, match="did not say hello"):
            fleet.start()
        assert time.monotonic() - started < 30.0  # far below SPAWN_TIMEOUT_S
        assert fleet._links == []


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
