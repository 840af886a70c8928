"""Worker links without worker processes: recovery, replay and the log.

The fleet starts a worker only through ``_WorkerLink.spawn``.  These tests
replace it with a thread that runs the real worker-side server and frame
loop (:func:`build_server`, :func:`serve_connection`) over a socket pair,
so the crash, wedge and error paths of the front-end run in the fast tier,
deterministically.  Outputs are compared bit for bit with a single
in-process server, as in ``test_recovery.py``.
"""

import asyncio
import contextlib
import socket
import threading
import time

import pytest

from repro.data import generate_image
from repro.fleet import PerforationFleet
from repro.fleet.frontend import _WorkerLink
from repro.fleet.protocol import ProtocolError, write_frame
from repro.fleet.worker import build_server, serve_connection
from repro.serve import PerforationServer, ServeRequest

CALIBRATION = {"gaussian": [generate_image("natural", size=32, seed=77)]}


class _DropAfter:
    """A worker's end of the connection that ends after ``replies`` frames
    past the hello: the worker exits mid-trace, as if it crashed."""

    def __init__(self, stream, replies):
        self._stream = stream
        self._left = replies + 1

    def read(self, n):
        return self._stream.read(n) if self._left > 0 else b""

    def write(self, data):
        self._stream.write(data)

    def flush(self):
        self._stream.flush()
        self._left -= 1


class _ThreadWorker(threading.Thread):
    """A worker in a thread, standing in for the process ``spawn`` starts.

    ``fault`` is ``None``, ``("crash", replies)``, or ``"wedge"``: say hello,
    then read nothing until ``release`` is set, so the socket buffers fill
    up.  The front-end holds no process handle for a thread, so retiring
    one only aborts its connection.
    """

    def __init__(self, sock, spec, fault):
        super().__init__(name=f"worker-{spec.index}.g{spec.generation}", daemon=True)
        self.sock = sock
        self.spec = spec
        self.fault = fault
        self.release = threading.Event()

    def run(self):
        stream = self.sock.makefile("rwb")
        try:
            server, report = build_server(self.spec)
            if self.fault == "wedge":
                write_frame(stream, {"type": "hello", **report})
                self.release.wait()
            elif self.fault is not None:
                serve_connection(_DropAfter(stream, self.fault[1]), server, report, self.spec)
            else:
                serve_connection(stream, server, report, self.spec)
        except (OSError, ProtocolError):
            pass  # the front-end dropped the connection
        finally:
            with contextlib.suppress(OSError):
                stream.close()
            self.sock.close()


def _spawn_in_threads(monkeypatch, faults=None):
    """Run every worker the fleet spawns in a thread.

    ``faults`` maps ``(worker index, generation)`` to a :class:`_ThreadWorker`
    fault.  Returns the list each started worker is appended to.
    """
    faults = dict(faults or {})
    started = []

    async def spawn(link, spec):
        front, back = socket.socketpair()
        worker = _ThreadWorker(back, spec, faults.get((spec.index, spec.generation)))
        worker.start()
        started.append(worker)
        return await asyncio.open_unix_connection(sock=front)

    monkeypatch.setattr(_WorkerLink, "spawn", spawn)
    return started


def _fleet(**options):
    options.setdefault("max_batch", 4)
    return PerforationFleet(workers=1, calibration_inputs=CALIBRATION, **options)


def _requests(count, first=0, size=32):
    return [
        ServeRequest(
            request_id=index,
            app="gaussian",
            inputs=generate_image("natural", size=size, seed=index),
            error_budget=0.05,
            arrival_ms=float(index),
        )
        for index in range(first, first + count)
    ]


def _reference(*traces, max_batch=4):
    """Per trace, request id → the response of one in-process server."""
    server = PerforationServer(max_batch=max_batch, calibration_inputs=CALIBRATION)
    return [{r.request_id: r for r in server.run_trace(trace)} for trace in traces]


def _assert_bit_identical(responses, reference):
    assert sorted(r.request_id for r in responses) == sorted(reference)
    for response in responses:
        expected = reference[response.request_id]
        assert not response.rejected
        assert response.config_label == expected.config_label
        assert response.output.tobytes() == expected.output.tobytes()
        assert response.error == expected.error
        assert response.batch_size == expected.batch_size
        assert response.completed_ms == expected.completed_ms


def test_crash_mid_trace_is_replayed_bit_identically(monkeypatch):
    spawned = _spawn_in_threads(monkeypatch, {(0, 0): ("crash", 3)})
    requests = _requests(10)
    (reference,) = _reference(requests)
    with _fleet() as fleet:
        responses = fleet.serve_trace(requests)
        metrics = fleet.metrics()

    assert [worker.spec.generation for worker in spawned] == [0, 1]
    assert metrics.worker_failures == 1 and metrics.replayed >= 1
    assert metrics.completed == len(requests) and metrics.failed == 0
    assert metrics.completed + metrics.shed + metrics.failed == len(requests)
    _assert_bit_identical(responses, reference)


def test_wedged_worker_with_a_full_socket_is_recovered(monkeypatch):
    """The sender holds the send lock while its write waits for a wedged
    worker to read; recovery must abort that connection before it takes
    the lock, or it waits for as long as the worker stays wedged."""
    spawned = _spawn_in_threads(monkeypatch, {(0, 0): "wedge"})
    # 60 frames of 32 KiB pixels: far more than the socket buffers hold.
    requests = _requests(60, size=64)
    (reference,) = _reference(requests)
    with _fleet(request_timeout_s=0.5) as fleet:
        fleet.start()
        wedged = spawned[0]
        # Unless recovery aborts the connection first, the wedge lasts until
        # this watchdog ends it.
        watchdog = threading.Timer(20.0, wedged.release.set)
        watchdog.start()
        try:
            started = time.monotonic()
            responses = fleet.serve_trace(requests)
            elapsed = time.monotonic() - started
        finally:
            watchdog.cancel()
            wedged.release.set()
        metrics = fleet.metrics()

    assert elapsed < 10.0
    assert metrics.worker_failures == 1 and metrics.replayed == len(requests)
    assert metrics.completed + metrics.shed + metrics.failed == len(requests)
    _assert_bit_identical(responses, reference)


def test_request_scoped_error_fails_only_that_request(monkeypatch):
    _spawn_in_threads(monkeypatch)
    requests = _requests(6)
    (reference,) = _reference([r for r in requests if r.request_id not in (2, 4)])
    with _fleet(error_on=(2, 4)) as fleet:
        responses = fleet.serve_trace(requests)
        metrics = fleet.metrics()

    assert metrics.worker_failures == 0 and metrics.failed == 2
    assert metrics.completed + metrics.shed + metrics.failed == len(requests)
    failed = [r for r in responses if r.rejected]
    assert [r.request_id for r in failed] == [2, 4]
    assert all(r.metadata["reason"] == "worker-error" for r in failed)
    _assert_bit_identical([r for r in responses if not r.rejected], reference)


def test_replayed_drain_echo_of_an_earlier_trace_is_absorbed(monkeypatch):
    """Generation 0 answers the first trace (five serves and a drain), then
    two serves of the second before it crashes.  Its replacement replays
    both traces, and its echo of the first trace's drain must not end the
    second trace."""
    spawned = _spawn_in_threads(monkeypatch, {(0, 0): ("crash", 8)})
    first, second = _requests(5), _requests(5, first=5)
    _, reference = _reference(first, second)
    with _fleet() as fleet:
        fleet.serve_trace(first)
        responses = fleet.serve_trace(second)
        metrics = fleet.metrics()

    assert [worker.spec.generation for worker in spawned] == [0, 1]
    assert metrics.worker_failures == 1 and metrics.failed == 0
    assert metrics.completed + metrics.shed + metrics.failed == len(first) + len(second)
    _assert_bit_identical(responses, reference)


def test_exhausted_budget_degrades_the_shard_and_drops_its_log(monkeypatch):
    spawned = _spawn_in_threads(monkeypatch, {(0, g): ("crash", 1) for g in range(3)})
    requests = _requests(6)
    with _fleet(max_batch=1, max_respawns=2) as fleet:
        responses = fleet.serve_trace(requests)
        link = fleet._links[0]
        assert link.dead and link.log == [] and not link.pending
        later = fleet.serve_trace(_requests(3, first=6))
        metrics = fleet.metrics()

    # Generation 0 and both respawns each serve request 0, then crash.
    assert len(spawned) == 3
    assert metrics.worker_failures == 3
    assert metrics.completed == 1 and metrics.failed == len(requests) - 1 + len(later)
    assert metrics.completed + metrics.shed + metrics.failed == len(requests) + len(later)
    assert [r.request_id for r in responses if not r.rejected] == [0]
    assert {r.metadata["reason"] for r in later} == {"shard-degraded"}


@pytest.mark.parametrize("max_respawns, entries", [(0, 0), (2, 21)])
def test_log_is_kept_only_while_a_respawn_may_replay_it(
    monkeypatch, max_respawns, entries
):
    """20 serves and one drain: logged with a respawn budget, not without."""
    _spawn_in_threads(monkeypatch)
    with _fleet(max_respawns=max_respawns) as fleet:
        fleet.serve_trace(_requests(20))
        assert len(fleet._links[0].log) == entries


def test_a_respawn_that_fails_to_start_degrades_the_shard(monkeypatch):
    """Respawns reach the real ``spawn``, whose ``Process.start()`` raises:
    each is one failed attempt, and the exhausted shard degrades instead of
    breaking the trace with a ``FleetError``."""
    import multiprocessing.context as mp_context

    real_spawn = _WorkerLink.spawn
    _spawn_in_threads(monkeypatch, {(0, 0): ("crash", 1)})
    thread_spawn = _WorkerLink.spawn

    async def spawn(link, spec):
        if spec.generation == 0:
            return await thread_spawn(link, spec)
        return await real_spawn(link, spec)

    def refuse(self):
        raise OSError("cannot start a worker")

    monkeypatch.setattr(_WorkerLink, "spawn", spawn)
    monkeypatch.setattr(mp_context.SpawnProcess, "start", refuse)
    requests = _requests(4)
    with _fleet(max_batch=1, max_respawns=2) as fleet:
        responses = fleet.serve_trace(requests)
        link = fleet._links[0]
        assert link.dead and link.proc is None
        metrics = fleet.metrics()

    assert metrics.worker_failures == 3
    assert metrics.completed + metrics.shed + metrics.failed == len(requests)
    assert metrics.failed >= 1
    assert {r.metadata["reason"] for r in responses if r.rejected} == {"worker-failure"}
