"""Worker links without worker processes: recovery, replay and the log.

The fleet starts a worker only through ``_WorkerLink.spawn``.  These tests
replace it with a thread that runs the real worker-side server and frame
loop (:func:`build_server`, :func:`serve_connection`) over a socket pair,
so the crash, wedge and error paths of the front-end run in the fast tier,
deterministically.  A crash is the worker's own ``fail_after`` hook, which
counts requests; in a thread its ``os._exit`` ends the worker's connection
instead of the test run.  Outputs are compared bit for bit with a single
in-process server, as in ``test_recovery.py``.

How the sender groups requests into frames depends on how many it finds
queued when it wakes up.  Tests that pin frame contents hold each sender
until its whole trace is queued, so the frames depend on the payload cap
alone.
"""

import asyncio
import contextlib
import io
import socket
import threading
import time

import numpy as np
import pytest

import repro.fleet.frontend as frontend
from repro.data import generate_image
from repro.fleet import PerforationFleet
from repro.fleet.frontend import _WorkerLink
from repro.fleet.protocol import (
    ProtocolError,
    array_bytes,
    encode_frame,
    read_frame,
    request_to_wire,
    response_from_wire,
    write_frame,
)
from repro.fleet.worker import WorkerSpec, build_server, serve_connection
from repro.serve import PerforationServer, ServeRequest

CALIBRATION = {"gaussian": [generate_image("natural", size=32, seed=77)]}

#: Array payload of one 32x32 float64 input.
INPUT_BYTES = 32 * 32 * 8


class _Crashed(BaseException):
    """A thread worker's ``os._exit``: it ends that worker, not the test run."""


def _exit_thread(code):
    raise _Crashed(code)


class _ThreadWorker(threading.Thread):
    """A worker in a thread, standing in for the process ``spawn`` starts.

    ``fault`` is ``None`` or ``"wedge"``: say hello, then read nothing until
    ``release`` is set, so the socket buffers fill up.  The front-end holds
    no process handle for a thread, so retiring one only aborts its
    connection.
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
            else:
                serve_connection(stream, server, report, self.spec)
        except (OSError, ProtocolError, _Crashed):
            pass  # the front-end dropped the connection, or fail_after fired
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
    monkeypatch.setattr("repro.fleet.worker.os._exit", _exit_thread)

    async def spawn(link, spec):
        front, back = socket.socketpair()
        worker = _ThreadWorker(back, spec, faults.get((spec.index, spec.generation)))
        worker.start()
        started.append(worker)
        return await asyncio.open_unix_connection(sock=front)

    monkeypatch.setattr(_WorkerLink, "spawn", spawn)
    return started


def _whole_trace_per_wakeup(monkeypatch):
    """Start each link's sender only once its trace's drain is queued, so
    its first wake-up finds the whole trace and cuts it at the cap."""
    send = _WorkerLink._send

    async def held(link):
        while link.drain_seq is None:
            await asyncio.sleep(0)
        await send(link)

    monkeypatch.setattr(_WorkerLink, "_send", held)


def _frames_written(monkeypatch):
    """Record ``(task name, frame)`` for every frame the front-end writes:
    the sender task names end in "sender", recovery runs in the reader's."""
    written = []
    write = frontend.write_frame_async

    async def recording(writer, frame):
        written.append((asyncio.current_task().get_name(), frame))
        await write(writer, frame)

    monkeypatch.setattr(frontend, "write_frame_async", recording)
    return written


def _serve_frames(written, task="sender"):
    """The wire ids each ``serve`` frame written by ``task`` carried."""
    return [
        [request["request_id"] for request in frame["requests"]]
        for name, frame in written
        if name.endswith(task) and frame["type"] == "serve"
    ]


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
    spawned = _spawn_in_threads(monkeypatch)
    requests = _requests(10)
    (reference,) = _reference(requests)
    with _fleet(fail_after={0: 3}) as fleet:
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
    # 60 requests of 32 KiB pixels: far more than the socket buffers hold.
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
    """The failed ids share one frame with requests that are served."""
    _spawn_in_threads(monkeypatch)
    _whole_trace_per_wakeup(monkeypatch)
    written = _frames_written(monkeypatch)
    requests = _requests(6)
    (reference,) = _reference([r for r in requests if r.request_id not in (2, 4)])
    with _fleet(error_on=(2, 4)) as fleet:
        responses = fleet.serve_trace(requests)
        metrics = fleet.metrics()

    assert _serve_frames(written) == [[0, 1, 2, 3, 4, 5]]
    assert metrics.worker_failures == 0 and metrics.failed == 2
    assert metrics.completed + metrics.shed + metrics.failed == len(requests)
    failed = [r for r in responses if r.rejected]
    assert [r.request_id for r in failed] == [2, 4]
    assert all(r.metadata["reason"] == "worker-error" for r in failed)
    _assert_bit_identical([r for r in responses if not r.rejected], reference)


def test_a_request_whose_submit_raises_fails_alone_in_its_frame(monkeypatch):
    """``submit`` raises for the middle request of a six-request frame: it
    gets a request-scoped error, and the frame's other requests are served
    as if it had never been sent."""
    requests = _requests(6)
    (reference,) = _reference([r for r in requests if r.request_id != 3])
    _spawn_in_threads(monkeypatch)
    _whole_trace_per_wakeup(monkeypatch)
    written = _frames_written(monkeypatch)
    submit = PerforationServer.submit

    def refuse_request_3(server, request, now_ms=None):
        if request.request_id == 3:
            raise RuntimeError("cannot serve request 3")
        return submit(server, request, now_ms)

    monkeypatch.setattr(PerforationServer, "submit", refuse_request_3)
    with _fleet() as fleet:
        responses = fleet.serve_trace(requests)
        metrics = fleet.metrics()

    assert _serve_frames(written) == [[0, 1, 2, 3, 4, 5]]
    assert metrics.worker_failures == 0 and metrics.failed == 1
    assert metrics.completed + metrics.shed + metrics.failed == len(requests)
    [failed] = [r for r in responses if r.rejected]
    assert failed.request_id == 3 and failed.metadata["reason"] == "worker-error"
    _assert_bit_identical([r for r in responses if not r.rejected], reference)


def test_an_unencodable_request_fails_alone_in_its_frame(monkeypatch):
    """Request 3's input cannot go on the wire.  The sender leaves it out
    of the frame it shares with five others, which are served, and still
    sends the drain, so the trace ends and fails request 3 alone."""
    requests = _requests(6)
    requests[3] = ServeRequest(3, "gaussian", np.empty((32, 32), dtype=object), 0.05, 3.0)
    (reference,) = _reference([r for r in requests if r.request_id != 3])
    _spawn_in_threads(monkeypatch)
    _whole_trace_per_wakeup(monkeypatch)
    written = _frames_written(monkeypatch)
    # Bounds the wait should the drain go missing: a missed drain then
    # shows as worker failures instead of a hung test.
    with _fleet(request_timeout_s=5.0) as fleet:
        responses = fleet.serve_trace(requests)
        metrics = fleet.metrics()

    assert _serve_frames(written) == [[0, 1, 2, 4, 5]]
    assert metrics.worker_failures == 0 and metrics.failed == 1
    [failed] = [r for r in responses if r.rejected]
    assert failed.request_id == 3 and failed.metadata["reason"] == "worker-failure"
    _assert_bit_identical([r for r in responses if not r.rejected], reference)


def test_sender_cuts_frames_at_the_payload_cap(monkeypatch):
    """With room for three 32x32 inputs per frame, the sender fills frames
    up to the cap, and a 64x64 input (four times one) travels alone."""
    monkeypatch.setattr(frontend, "FRAME_PAYLOAD_CAP", 3 * INPUT_BYTES)
    _spawn_in_threads(monkeypatch)
    _whole_trace_per_wakeup(monkeypatch)
    written = _frames_written(monkeypatch)
    requests = _requests(10)
    requests[4] = _requests(1, first=4, size=64)[0]
    (reference,) = _reference(requests)
    with _fleet() as fleet:
        responses = fleet.serve_trace(requests)

    assert _serve_frames(written) == [[0, 1, 2], [3], [4], [5, 6, 7], [8, 9]]
    for name, frame in written:
        if frame["type"] == "serve" and len(frame["requests"]) > 1:
            payload = sum(array_bytes(request["inputs"]) for request in frame["requests"])
            assert payload <= frontend.FRAME_PAYLOAD_CAP
    _assert_bit_identical(responses, reference)


def test_replay_writes_the_frames_the_cap_implies(monkeypatch):
    """Recovery replays a logged 60-request trace (and its drain) in frames
    cut at the cap: twelve frames of five requests, then the drain."""
    monkeypatch.setattr(frontend, "FRAME_PAYLOAD_CAP", 5 * INPUT_BYTES)
    spawned = _spawn_in_threads(monkeypatch)
    _whole_trace_per_wakeup(monkeypatch)
    written = _frames_written(monkeypatch)
    requests = _requests(60)
    (reference,) = _reference(requests)
    with _fleet(fail_after={0: 1}) as fleet:
        responses = fleet.serve_trace(requests)
        metrics = fleet.metrics()

    replayed = [frame for name, frame in written if name.endswith("reader")]
    assert [frame["type"] for frame in replayed] == ["serve"] * 12 + ["drain"]
    assert _serve_frames(written, task="reader") == [
        list(range(start, start + 5)) for start in range(0, 60, 5)
    ]
    assert [worker.spec.generation for worker in spawned] == [0, 1]
    assert metrics.worker_failures == 1 and metrics.replayed == len(requests)
    _assert_bit_identical(responses, reference)


class _Pipe:
    """A worker's connection as two byte buffers: frames in, frames out."""

    def __init__(self, incoming):
        self.incoming = io.BytesIO(incoming)
        self.outgoing = io.BytesIO()

    def read(self, n):
        return self.incoming.read(n)

    def write(self, data):
        self.outgoing.write(data)

    def flush(self):
        pass


@pytest.mark.parametrize("crash_after", [1, 4])
def test_fail_after_counts_requests_inside_one_frame(monkeypatch, crash_after):
    """All six requests arrive in one frame; ``fail_after=k`` crashes the
    worker after exactly k of them, once it has written the k responses it
    holds (``max_batch=1``: each request is a batch of its own)."""
    monkeypatch.setattr("repro.fleet.worker.os._exit", _exit_thread)
    requests = _requests(6)
    single = PerforationServer(max_batch=1, calibration_inputs=CALIBRATION)
    ladders = {"gaussian": tuple(single.controller.ladder("gaussian"))}
    reference = {r.request_id: r for r in single.run_trace(requests)}
    spec = WorkerSpec(index=0, address=None, max_batch=1, ladders=ladders, fail_after=crash_after)
    server, report = build_server(spec)
    pipe = _Pipe(
        encode_frame({"type": "serve", "requests": [request_to_wire(r) for r in requests]})
    )
    with pytest.raises(_Crashed):
        serve_connection(pipe, server, report, spec)

    pipe.outgoing.seek(0)
    assert read_frame(pipe.outgoing)["type"] == "hello"
    completed = read_frame(pipe.outgoing)
    assert completed["type"] == "completed"
    assert read_frame(pipe.outgoing) is None  # crashed: nothing after the held responses
    served = [response_from_wire(wire) for wire in completed["responses"]]
    assert [r.request_id for r in served] == list(range(crash_after))
    _assert_bit_identical(served, {i: reference[i] for i in range(crash_after)})


@pytest.mark.parametrize("flaw", ["unknown-tag", "missing-field"])
def test_a_malformed_request_entry_fails_its_whole_frame(flaw):
    """The second of three entries is malformed: the worker raises
    ``ProtocolError`` before it serves any request of the frame."""
    entries = [request_to_wire(request) for request in _requests(3)]
    if flaw == "unknown-tag":
        entries[1]["inputs"] = {"__kind__": "mystery"}
    else:
        del entries[1]["app"]
    pipe = _Pipe(encode_frame({"type": "serve", "requests": entries}))
    server, report = build_server(WorkerSpec(index=0, address=None, max_batch=1))
    with pytest.raises(ProtocolError):
        serve_connection(pipe, server, report)

    pipe.outgoing.seek(0)
    assert read_frame(pipe.outgoing)["type"] == "hello"
    assert read_frame(pipe.outgoing) is None  # no completed frame, no error frame
    assert server.metrics.completed == 0 and server.scheduler.pending == 0


def test_replayed_drain_echo_of_an_earlier_trace_is_absorbed(monkeypatch):
    """Generation 0 answers the first trace (five requests and a drain),
    then serves two requests of the second before it crashes.  Its
    replacement replays both traces, and its echo of the first trace's
    drain must not end the second trace."""
    spawned = _spawn_in_threads(monkeypatch)
    first, second = _requests(5), _requests(5, first=5)
    _, reference = _reference(first, second)
    with _fleet(fail_after={0: 7}) as fleet:
        fleet.serve_trace(first)
        responses = fleet.serve_trace(second)
        metrics = fleet.metrics()

    assert [worker.spec.generation for worker in spawned] == [0, 1]
    assert metrics.worker_failures == 1 and metrics.failed == 0
    assert metrics.completed + metrics.shed + metrics.failed == len(first) + len(second)
    _assert_bit_identical(responses, reference)


def test_exhausted_budget_degrades_the_shard_and_drops_its_log(monkeypatch):
    spawned = _spawn_in_threads(monkeypatch)
    requests = _requests(6)
    with _fleet(max_batch=1, max_respawns=2, fail_after={0: 1}, chaos_persistent=True) as fleet:
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
    _spawn_in_threads(monkeypatch)
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
    with _fleet(max_batch=1, max_respawns=2, fail_after={0: 1}) as fleet:
        responses = fleet.serve_trace(requests)
        link = fleet._links[0]
        assert link.dead and link.proc is None
        metrics = fleet.metrics()

    assert metrics.worker_failures == 3
    assert metrics.completed + metrics.shed + metrics.failed == len(requests)
    assert metrics.failed >= 1
    assert {r.metadata["reason"] for r in responses if r.rejected} == {"worker-failure"}
