"""Fleet end-to-end: bit-identity vs the single-process server, exact shed
accounting, zero-calibration warm starts, fleet-level metrics.

These tests spawn real worker processes, so they live in the slow tier;
the fast per-module pieces (protocol, sharding, validation) have their own
files.
"""

import time

import numpy as np
import pytest

from repro.data import generate_image
from repro.fleet import PerforationFleet
from repro.serve import PerforationServer, ServeRequest, TraceSpec, generate_trace

pytestmark = pytest.mark.slow

SPEC = TraceSpec(
    apps=("gaussian", "sobel3", "median"),
    requests=18,
    size=32,
    inputs_per_app=2,
    seed=31,
)


def _calibration_inputs(size=32):
    return {app: [generate_image("natural", size=size, seed=77)] for app in SPEC.apps}


@pytest.fixture(scope="module")
def single_process_responses():
    """Reference outputs: the whole trace served by one in-process server."""
    server = PerforationServer(max_batch=4, calibration_inputs=_calibration_inputs())
    responses = {r.request_id: r for r in server.run_trace(generate_trace(SPEC))}
    return server, responses


@pytest.mark.parametrize("transport", ["unix", "tcp"])
def test_fleet_outputs_bit_identical_to_single_process(
    transport, single_process_responses
):
    _, reference = single_process_responses
    trace = generate_trace(SPEC)
    with PerforationFleet(
        workers=2,
        max_batch=4,
        calibration_inputs=_calibration_inputs(),
        transport=transport,
    ) as fleet:
        responses = fleet.serve_trace(trace)
        metrics = fleet.metrics()

    assert len(responses) == len(trace)
    assert metrics.shed == 0
    for response in responses:
        expected = reference[response.request_id]
        # Bit-identical, not approximately equal: same config choice, same
        # output bytes, same measured error, same virtual timestamps.
        assert response.config_label == expected.config_label
        assert np.array_equal(response.output, expected.output)
        assert response.output.tobytes() == expected.output.tobytes()
        assert response.error == expected.error
        assert response.batch_size == expected.batch_size
        assert response.completed_ms == expected.completed_ms
        assert response.queue_delay_ms == expected.queue_delay_ms


def test_fleet_metrics_match_single_process_accounting(single_process_responses):
    server, _ = single_process_responses
    with PerforationFleet(
        workers=2, max_batch=4, calibration_inputs=_calibration_inputs()
    ) as fleet:
        fleet.serve_trace(generate_trace(SPEC))
        merged = fleet.metrics()
        per_worker = fleet.worker_metrics()

    expected = server.metrics.deterministic_snapshot()
    actual = merged.deterministic_snapshot()
    # Counters and per-key counts are exactly the single-process values.
    # The error histograms merge by adding buckets, so their count, min,
    # max and bucket counts match exactly too (per-request errors are
    # pinned by test_fleet_outputs_bit_identical_to_single_process).
    for field in ("completed", "violations", "fallbacks", "cache_hits", "batches"):
        assert actual[field] == expected[field]
    assert actual["per_app"] == expected["per_app"]
    assert actual["per_config"] == expected["per_config"]
    assert actual["batch_sizes"] == expected["batch_sizes"]
    assert actual["errors"] == expected["errors"]
    assert actual["worst_budget_fraction"] == expected["worst_budget_fraction"]
    # Worker contributions are disjoint and complete.
    assert sum(w["metrics"].completed for w in per_worker) == expected["completed"]
    assert all(w["metrics"].completed > 0 for w in per_worker)


def test_dead_shard_metrics_come_from_the_batches_it_delivered():
    """A degraded shard cannot report its metrics; the front-end's account
    of the responses it delivered — batches counted per frame — matches
    what the worker itself would have reported."""
    calibration = {"gaussian": [generate_image("natural", size=32, seed=77)]}
    requests = [
        ServeRequest(
            request_id=index,
            app="gaussian",
            inputs=generate_image("natural", size=32, seed=index),
            error_budget=0.05,
            arrival_ms=float(index),
        )
        for index in range(8)
    ]
    single = PerforationServer(max_batch=4, calibration_inputs=calibration)
    single.run_trace(requests)
    with PerforationFleet(
        workers=1,
        max_batch=4,
        calibration_inputs=calibration,
        # Two full batches are delivered, then the worker dies for good.
        fail_after={0: len(requests)},
        max_respawns=0,
    ) as fleet:
        responses = fleet.serve_trace(requests)
        metrics = fleet.metrics()
        (worker,) = fleet.worker_metrics()

    assert worker["dead"] and worker["controller"] is None
    assert not any(r.rejected for r in responses)
    assert metrics.worker_failures == 1 and metrics.failed == 0
    expected = single.metrics.deterministic_snapshot()
    actual = metrics.deterministic_snapshot()
    assert actual["batch_sizes"] == expected["batch_sizes"] == {4: 2}
    for field in ("completed", "batches", "per_app", "per_config", "errors"):
        assert actual[field] == expected[field]


def test_fleet_wall_clock_overrides_the_workers():
    """A worker's wall clock runs from its first request, idle gaps between
    traces included; fleet throughput divides by the fleet's own wall,
    accumulated over the traces only."""
    calibration = {"gaussian": [generate_image("natural", size=32, seed=77)]}
    trace = generate_trace(
        TraceSpec(apps=("gaussian",), requests=4, size=32, inputs_per_app=2, seed=5)
    )
    with PerforationFleet(workers=1, max_batch=4, calibration_inputs=calibration) as fleet:
        fleet.start()
        serving = 0.0
        for _ in range(2):
            start = time.perf_counter()
            fleet.serve_trace(trace)
            serving += time.perf_counter() - start
            time.sleep(0.5)  # idle: counts on the worker's clock only
        metrics = fleet.metrics()

    assert 0.0 < metrics.wall_time_s <= serving
    assert metrics.completed == 2 * len(trace)


def test_cold_workers_start_with_zero_calibration_sweeps():
    with PerforationFleet(
        workers=2, max_batch=4, calibration_inputs=_calibration_inputs()
    ) as fleet:
        fleet.start()
        reports = list(fleet.warm_reports)
        fleet.serve_trace(generate_trace(SPEC))
        workers = fleet.worker_metrics()

    # The front-end calibrated every application once and shipped the
    # ladders; no worker calibrated one itself, at start or while serving.
    assert len(reports) == 2
    for report in reports:
        assert report["ladders"] == sorted(SPEC.apps)
        assert report["calibrated"] == 0
    assert [worker["controller"]["calibrated"] for worker in workers] == [0, 0]


def test_admission_control_sheds_exactly_beyond_max_pending():
    calibration = _calibration_inputs()
    requests = [
        ServeRequest(
            request_id=index,
            app="gaussian",
            inputs=generate_image("natural", size=32, seed=index),
            error_budget=0.05,
            arrival_ms=float(index),
        )
        for index in range(6)
    ]
    # One worker, pending bound 1, and a scheduler that never flushes
    # before the drain (huge batch, huge delay): the first request stays
    # outstanding for the whole trace, so every later request is shed —
    # deterministically, independent of process timing.
    with PerforationFleet(
        workers=1,
        max_batch=64,
        max_delay_ms=1e9,
        calibration_inputs=calibration,
        max_pending=1,
    ) as fleet:
        responses = fleet.serve_trace(requests)
        metrics = fleet.metrics()

    assert metrics.completed == 1
    assert metrics.shed == len(requests) - 1
    assert metrics.completed + metrics.shed == len(requests)
    rejected = [r for r in responses if r.rejected]
    assert len(rejected) == len(requests) - 1
    assert {r.request_id for r in rejected} == set(range(1, 6))
    for response in rejected:
        assert response.output is None
        assert response.config_label == ""
    served = [r for r in responses if not r.rejected]
    assert len(served) == 1 and served[0].request_id == 0


def test_frontend_decodes_each_response_through_its_module_global(monkeypatch):
    """perfbench's fleet-hot workload stamps response arrival by replacing
    ``repro.fleet.frontend.response_from_wire``, and its traced run books
    that call as wire decode: the front-end must look the name up at call
    time, once per delivered response."""
    import repro.fleet.frontend as frontend

    decode = frontend.response_from_wire
    calls = []

    def counting(wire):
        calls.append(wire["request_id"])
        return decode(wire)

    monkeypatch.setattr(frontend, "response_from_wire", counting)
    trace = generate_trace(
        TraceSpec(apps=("gaussian", "sobel3"), requests=12, size=32, inputs_per_app=2, seed=5)
    )
    with PerforationFleet(
        workers=2, max_batch=4, calibration_inputs=_calibration_inputs()
    ) as fleet:
        responses = fleet.serve_trace(trace)
    assert len(responses) == 12 and not any(r.rejected for r in responses)
    assert len(calls) == 12
