"""Chaos suite: worker failure recovery preserves bit-identity.

Faults are injected deterministically through the spec-level chaos hooks
(``fail_after`` — hard exit after N served requests, ``error_on`` —
request-scoped error frames, ``hang_on`` — a stuck worker only the
response timeout can detect), so every test here is reproducible: no
random kill timing, no signal races.

The headline property: killing a worker mid-trace yields a *completed*
trace whose outputs are bit-identical to an undisturbed single-process
run, because the respawned worker warm-starts from the same shipped
ladders and replays the exact observation subsequence its predecessor
saw.  Accounting stays exact throughout:
``completed + shed + failed == len(trace)``.

These tests spawn (and kill) real worker processes — slow tier.
"""

import time

import pytest

from repro.data import generate_image
from repro.fleet import FleetError, PerforationFleet
from repro.serve import PerforationServer, ServeRequest, TraceSpec, generate_trace

pytestmark = pytest.mark.slow

SPEC = TraceSpec(
    apps=("gaussian", "sobel3", "median"),
    requests=18,
    size=32,
    inputs_per_app=2,
    seed=31,
)


def _calibration_inputs(apps=SPEC.apps, size=32):
    return {app: [generate_image("natural", size=size, seed=77)] for app in apps}


def _gaussian_requests(count, size=32):
    """A deterministic single-app trace: request id == wire id == arrival order."""
    return [
        ServeRequest(
            request_id=index,
            app="gaussian",
            inputs=generate_image("natural", size=size, seed=index),
            error_budget=0.05,
            arrival_ms=float(index),
        )
        for index in range(count)
    ]


def _assert_bit_identical(response, expected):
    assert not response.rejected
    assert response.config_label == expected.config_label
    assert response.output.tobytes() == expected.output.tobytes()
    assert response.error == expected.error
    assert response.batch_size == expected.batch_size
    assert response.completed_ms == expected.completed_ms


@pytest.fixture(scope="module")
def reference_responses():
    """The undisturbed run: the whole trace on one in-process server."""
    server = PerforationServer(max_batch=4, calibration_inputs=_calibration_inputs())
    return {r.request_id: r for r in server.run_trace(generate_trace(SPEC))}


def test_worker_crash_mid_trace_recovers_bit_identical(reference_responses):
    """The tentpole: kill worker 0 after its first request; the trace must
    still complete with outputs bit-identical to the undisturbed run."""
    trace = generate_trace(SPEC)
    with PerforationFleet(
        workers=2,
        max_batch=4,
        calibration_inputs=_calibration_inputs(),
        fail_after={0: 1},
        max_respawns=2,
    ) as fleet:
        responses = fleet.serve_trace(trace)
        metrics = fleet.metrics()
        respawns = list(fleet.respawn_reports)
        workers = fleet.worker_metrics()

    assert len(responses) == len(trace)
    assert metrics.worker_failures >= 1
    assert metrics.replayed >= 1
    assert metrics.failed == 0 and metrics.shed == 0
    assert metrics.completed == len(trace)
    assert metrics.completed + metrics.shed + metrics.failed == len(trace)
    # The replacement announced a bumped generation and warm-started from
    # the shipped ladders: like every other worker, it calibrated nothing,
    # at start or while replaying and serving.
    assert respawns
    for report in respawns:
        assert report["generation"] >= 1
        assert report["ladders"] == sorted(SPEC.apps)
        assert report["calibrated"] == 0
    assert [worker["controller"]["calibrated"] for worker in workers] == [0, 0]
    for response in responses:
        _assert_bit_identical(response, reference_responses[response.request_id])


def test_hung_worker_detected_by_response_timeout(reference_responses):
    """A worker that hangs (no EOF, no frames) is only detectable by the
    per-request response timeout; recovery then completes the trace."""
    trace = generate_trace(SPEC)
    with PerforationFleet(
        workers=2,
        max_batch=4,
        calibration_inputs=_calibration_inputs(),
        hang_on=(0,),  # hang whichever worker receives the first request
        request_timeout_s=2.0,
        max_respawns=2,
    ) as fleet:
        responses = fleet.serve_trace(trace)
        metrics = fleet.metrics()

    assert metrics.worker_failures >= 1
    assert metrics.failed == 0 and metrics.shed == 0
    assert metrics.completed == len(trace)
    for response in responses:
        _assert_bit_identical(response, reference_responses[response.request_id])


def test_hung_worker_with_a_full_socket_recovers_promptly():
    """The only worker hangs on the first of 60 requests at 64x64, so the
    front-end's writes fill the socket buffers and its sender blocks in a
    write while holding the send lock.  Recovery must not wait behind that
    write: the hung worker would sleep for 1200 s."""
    requests = _gaussian_requests(60, size=64)
    calibration = _calibration_inputs(apps=("gaussian",))
    single = PerforationServer(max_batch=4, calibration_inputs=calibration)
    reference = {r.request_id: r for r in single.run_trace(requests)}
    with PerforationFleet(
        workers=1,
        max_batch=4,
        calibration_inputs=calibration,
        hang_on=(0,),
        request_timeout_s=2.0,
    ) as fleet:
        started = time.monotonic()
        responses = fleet.serve_trace(requests)
        elapsed = time.monotonic() - started
        metrics = fleet.metrics()

    assert elapsed < 30.0
    assert metrics.worker_failures == 1
    assert metrics.replayed == len(requests)
    assert metrics.completed == len(requests)
    assert metrics.completed + metrics.shed + metrics.failed == len(requests)
    for response in responses:
        _assert_bit_identical(response, reference[response.request_id])


def test_respawn_budget_exhausted_degrades_shard_not_trace():
    """With a zero respawn budget, the crashed shard's requests fail
    explicitly — the other shard's outputs are still bit-identical."""
    spec = TraceSpec(
        apps=("gaussian", "sobel3"), requests=12, size=32, inputs_per_app=2, seed=7
    )
    calibration = _calibration_inputs(apps=spec.apps)
    trace = generate_trace(spec)
    single = PerforationServer(max_batch=1, calibration_inputs=calibration)
    reference = {r.request_id: r for r in single.run_trace(trace)}

    with PerforationFleet(
        workers=2,
        max_batch=1,  # every serve flushes: exactly one completion precedes the crash
        calibration_inputs=calibration,
        fail_after={0: 1},
        max_respawns=0,
    ) as fleet:
        responses = fleet.serve_trace(trace)
        metrics = fleet.metrics()

    assert metrics.worker_failures == 1
    assert metrics.replayed == 0
    assert metrics.failed > 0
    assert metrics.completed + metrics.shed + metrics.failed == len(trace)
    assert len(responses) == len(trace)
    failed = [r for r in responses if r.rejected]
    assert len(failed) == metrics.failed
    for response in failed:
        assert response.output is None
        assert response.metadata["reason"] in ("worker-failure", "shard-degraded")
    for response in responses:
        if not response.rejected:
            _assert_bit_identical(response, reference[response.request_id])


def test_persistent_crash_exhausts_budget_with_exact_accounting():
    """A fault that recurs on every respawn burns the whole budget, then
    degrades: initial spawn + max_respawns failures, everything else
    failed explicitly, nothing lost."""
    requests = _gaussian_requests(6)
    with PerforationFleet(
        workers=1,
        max_batch=1,
        calibration_inputs=_calibration_inputs(apps=("gaussian",)),
        fail_after={0: 1},
        chaos_persistent=True,
        max_respawns=2,
    ) as fleet:
        responses = fleet.serve_trace(requests)
        metrics = fleet.metrics()

    # Generation 0 and both respawns crashed: three failures in total.
    assert metrics.worker_failures == 3
    # Every generation re-serves the same first request, then dies before
    # the second — exactly one request ever completes.
    assert metrics.completed == 1
    assert metrics.failed == len(requests) - 1
    assert metrics.completed + metrics.shed + metrics.failed == len(requests)
    served = [r for r in responses if not r.rejected]
    assert len(served) == 1 and served[0].request_id == 0


def test_request_scoped_errors_fail_only_those_requests():
    """A request-scoped error frame fails that request and nothing else —
    no worker death, no recovery, the trace keeps going."""
    requests = _gaussian_requests(6)
    with PerforationFleet(
        workers=1,
        max_batch=1,
        calibration_inputs=_calibration_inputs(apps=("gaussian",)),
        error_on=(2, 4),  # first-trace wire ids == request ids here
    ) as fleet:
        responses = fleet.serve_trace(requests)
        metrics = fleet.metrics()

    assert metrics.worker_failures == 0
    assert metrics.failed == 2
    assert metrics.completed == len(requests) - 2
    assert metrics.completed + metrics.shed + metrics.failed == len(requests)
    failed = {r.request_id: r for r in responses if r.rejected}
    assert set(failed) == {2, 4}
    for response in failed.values():
        assert response.metadata["reason"] == "worker-error"
    for response in responses:
        if not response.rejected:
            assert response.output is not None


def test_worker_startup_failure_fails_fast_with_cause():
    """A worker whose server cannot be built reports the failure through
    an error hello frame — the front-end raises immediately with the real
    cause instead of waiting out the spawn timeout."""
    fleet = PerforationFleet(workers=1, device="no-such-device")
    started = time.monotonic()
    with pytest.raises(FleetError) as excinfo:
        fleet.start()
    elapsed = time.monotonic() - started

    assert elapsed < 30.0  # far below the 120 s spawn timeout
    assert "startup failed" in str(excinfo.value)
    # Partial startup was torn down: no leaked processes.
    assert fleet._links == []
