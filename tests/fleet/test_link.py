"""Worker links without worker processes: recovery, replay and the log.

The fleet starts a worker only through ``_WorkerLink.spawn``.  These tests
replace it with a thread that runs the real worker entry point
(:func:`worker_main`) on one end of a socket pair, as the process would,
so the start-up, crash, wedge and error paths of the front-end run in the
fast tier, deterministically.  A crash is the worker's own ``fail_after``
hook, which counts requests; in a thread its ``os._exit`` ends the
worker's connection instead of the test run.  Outputs are compared bit for bit with a single
in-process server, as in ``test_recovery.py``.

How the sender groups requests into frames depends on how many it finds
queued when it wakes up.  Tests that pin frame contents hold each sender
until its whole trace is queued, so the frames depend on the payload cap
alone.
"""

import asyncio
import io
import socket
import threading
import time

import numpy as np
import pytest

import repro.fleet.frontend as frontend
import repro.fleet.protocol as protocol
from repro.data import generate_image, hotspot_single
from repro.fleet import FleetError, PerforationFleet
from repro.fleet.frontend import _WorkerLink
from repro.fleet.protocol import (
    FRAME_HEADER,
    HEADER_LENGTH,
    ProtocolError,
    array_bytes,
    encode_frame,
    read_frame,
    request_to_wire,
    response_from_wire,
    write_frame,
)
from repro.fleet.worker import WorkerSpec, build_server, serve_connection, worker_main
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

    It runs :func:`worker_main` on its end of the socket pair, unless
    ``fault`` is ``"wedge"``: then it says hello and reads nothing until
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
        try:
            if self.fault == "wedge":
                self._wedge()
            else:
                worker_main(self.spec, self.sock)
        except (OSError, ProtocolError, _Crashed):
            pass  # the front-end dropped the connection, or fail_after fired
        finally:
            self.sock.close()

    def _wedge(self):
        with self.sock.makefile("rwb") as stream:
            server, report = build_server(self.spec)
            write_frame(stream, {"type": "hello", **report})
            self.release.wait()


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

    async def held(link, trace):
        while link.drain_seq is None:
            await asyncio.sleep(0)
        await send(link, trace)

    monkeypatch.setattr(_WorkerLink, "_send", held)


def _frames_written(monkeypatch):
    """Record ``(task name, frame)`` for every frame the front-end writes:
    the sender task names end in "sender", recovery runs in the reader's."""
    written = []
    write = frontend.write_frame_async

    async def recording(writer, frame, *table):
        written.append((asyncio.current_task().get_name(), frame))
        await write(writer, frame, *table)

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


def _pooled(count, pool, first=0, app="gaussian"):
    """Requests whose inputs cycle through the objects of ``pool``."""
    return [
        ServeRequest(
            request_id=index,
            app=app,
            inputs=pool[index % len(pool)],
            error_budget=0.05,
            arrival_ms=float(index),
        )
        for index in range(first, first + count)
    ]


def _reference(*traces, max_batch=4, calibration=CALIBRATION):
    """Per trace, request id → the response of one in-process server."""
    server = PerforationServer(max_batch=max_batch, calibration_inputs=calibration)
    return [{r.request_id: r for r in server.run_trace(trace)} for trace in traces]


def _array_bytes_written(monkeypatch):
    """Record the array bytes of every frame the front-end encodes (thread
    workers encode theirs in threads of their own)."""
    written = []
    encode = protocol.encode_frame

    def recording(message, table=None):
        frame = encode(message, table)
        if threading.current_thread() is threading.main_thread():
            body = frame[FRAME_HEADER.size :]
            (header,) = HEADER_LENGTH.unpack_from(body)
            written.append(len(body) - HEADER_LENGTH.size - header)
        return frame

    monkeypatch.setattr(protocol, "encode_frame", recording)
    return written


def _array_counts(fleet):
    registry = fleet.observability()
    return {
        f"{direction}_{way}": registry.get(f"fleet.arrays_{direction}_{way}").value
        for direction in ("sent", "received")
        for way in ("by_value", "by_ref")
    }


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
    of the frame it shares with five others, which are served, fails it
    as invalid input, and still sends the drain, so the trace ends."""
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
    assert failed.request_id == 3 and failed.metadata["reason"] == "invalid-input"
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
    spec = WorkerSpec(index=0, max_batch=1, ladders=ladders, fail_after=crash_after)
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
    server, report = build_server(WorkerSpec(index=0, max_batch=1))
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


def test_a_worker_that_cannot_build_its_server_fails_the_start_with_its_cause(monkeypatch):
    """``worker_main`` answers a failed ``build_server`` with an ``error``
    frame in place of hello: ``start()`` raises that cause at once and
    tears the fleet down."""
    spawned = _spawn_in_threads(monkeypatch)
    fleet = PerforationFleet(workers=2, device="no-such-device")
    with pytest.raises(FleetError, match="startup failed"):
        fleet.start()

    assert fleet._links == []
    assert len(spawned) == 2
    for worker in spawned:
        worker.join(timeout=5.0)
        assert not worker.is_alive()


def test_worker_main_waits_without_a_timeout_and_ends_at_eof():
    """The worker's end of the pair has no timeout, so a front-end that
    stays idle between traces keeps its worker; closing the front-end's
    end is what ends ``worker_main``."""
    single = PerforationServer(max_batch=1, calibration_inputs=CALIBRATION)
    ladders = {"gaussian": tuple(single.controller.ladder("gaussian"))}
    front, back = socket.socketpair()
    worker = _ThreadWorker(back, WorkerSpec(index=0, max_batch=1, ladders=ladders), None)
    worker.start()
    try:
        with front.makefile("rwb") as stream:
            assert read_frame(stream)["type"] == "hello"
            assert back.gettimeout() is None
            write_frame(stream, {"type": "serve", "requests": [request_to_wire(_requests(1)[0])]})
            assert read_frame(stream)["type"] == "completed"
            assert back.gettimeout() is None
    finally:
        front.close()
        worker.join(timeout=1.0)
    assert not worker.is_alive()


def test_a_frame_that_does_not_decode_ends_the_worker():
    """A torn frame ends the worker with ``ProtocolError``, and the
    front-end reads EOF."""
    front, back = socket.socketpair()
    worker = _ThreadWorker(back, WorkerSpec(index=0, max_batch=1), None)
    worker.start()
    try:
        with front.makefile("rwb") as stream:
            assert read_frame(stream)["type"] == "hello"
            stream.write(b"\x00\x00\x00\x08garbage!")
            stream.flush()
            assert read_frame(stream) is None
    finally:
        front.close()
        worker.join(timeout=5.0)
    assert not worker.is_alive()


def test_close_ends_every_worker_over_its_pair(monkeypatch):
    """``close()`` says shutdown on each pair; each worker answers bye and
    returns from ``worker_main``."""
    spawned = _spawn_in_threads(monkeypatch)
    with _fleet() as fleet:
        fleet.serve_trace(_requests(3))
    assert len(spawned) == 1
    for worker in spawned:
        worker.join(timeout=5.0)
        assert not worker.is_alive()


def test_a_request_too_big_for_a_frame_fails_alone_and_stays_out_of_replay(monkeypatch):
    """Request 2's frame would be over the frame bound.  It fails at once
    as invalid input, without failing the worker, and when a crash in the
    next trace replays the log, replay leaves it out the same way."""
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16 * INPUT_BYTES)
    monkeypatch.setattr(frontend, "FRAME_PAYLOAD_CAP", 3 * INPUT_BYTES)
    spawned = _spawn_in_threads(monkeypatch)
    first, second = _requests(5), _requests(4, first=5)
    first[2] = _requests(1, first=2, size=128)[0]  # 16 inputs' bytes: over the bound
    served_first = [r for r in first if r.request_id != 2]
    reference_first, reference_second = _reference(served_first, second)
    # The worker crashes after its sixth request: the second of the second
    # trace.
    with _fleet(fail_after={0: 6}) as fleet:
        responses = fleet.serve_trace(first)
        later = fleet.serve_trace(second)
        metrics = fleet.metrics()

    [failed] = [r for r in responses if r.rejected]
    assert failed.request_id == 2 and failed.metadata["reason"] == "invalid-input"
    _assert_bit_identical([r for r in responses if not r.rejected], reference_first)
    assert [worker.spec.generation for worker in spawned] == [0, 1]
    assert metrics.worker_failures == 1 and metrics.failed == 1
    assert metrics.completed + metrics.shed + metrics.failed == len(first) + len(second)
    _assert_bit_identical(later, reference_second)


def test_each_distinct_input_crosses_once_per_link_and_trace(monkeypatch):
    """Two apps on two workers share three input objects over two traces:
    each link carries each object's bytes once per trace, and every other
    use as a slot number."""
    calibration = {app: CALIBRATION["gaussian"] for app in ("gaussian", "sobel3")}
    pool = [generate_image("natural", size=32, seed=seed) for seed in range(3)]

    def trace(first):
        requests = _pooled(12, pool, first=first)
        requests += _pooled(12, pool, first=first + 12, app="sobel3")
        return requests

    first, second = trace(0), trace(24)
    _, reference = _reference(first, second, calibration=calibration)
    _spawn_in_threads(monkeypatch)
    written = _array_bytes_written(monkeypatch)
    with PerforationFleet(workers=2, max_batch=4, calibration_inputs=calibration) as fleet:
        fleet.serve_trace(first)
        assert sum(written) == 2 * len(pool) * INPUT_BYTES
        responses = fleet.serve_trace(second)
        assert sum(written) == 2 * 2 * len(pool) * INPUT_BYTES
        counts = _array_counts(fleet)

    _assert_bit_identical(responses, reference)
    assert counts["sent_by_value"] == 2 * 2 * len(pool)
    assert counts["sent_by_ref"] == len(first) + len(second) - counts["sent_by_value"]
    # One output per response; result-cache hits return the cache's own
    # array, so an output served again crosses as a slot number too.
    assert counts["received_by_value"] + counts["received_by_ref"] == len(first) + len(second)
    assert counts["received_by_ref"] > 0


def test_an_input_changed_in_place_between_traces_travels_again(monkeypatch):
    """The caller changes one shared input object in place between two
    traces.  Each trace ships each object's bytes anew, so the worker
    serves what the object holds now, not what it kept from the last
    trace."""
    _spawn_in_threads(monkeypatch)
    pool = [generate_image("natural", size=32, seed=seed) for seed in range(3)]
    first, second = _pooled(9, pool), _pooled(9, pool, first=9)
    single = PerforationServer(max_batch=4, calibration_inputs=CALIBRATION)
    with _fleet() as fleet:
        reference = {r.request_id: r for r in single.run_trace(first)}
        _assert_bit_identical(fleet.serve_trace(first), reference)
        pool[0] *= 0.5
        reference = {r.request_id: r for r in single.run_trace(second)}
        _assert_bit_identical(fleet.serve_trace(second), reference)
        metrics = fleet.metrics()
        counts = _array_counts(fleet)

    assert metrics.worker_failures == 0
    assert counts["sent_by_value"] == 2 * len(pool)


def test_a_respawned_worker_starts_both_tables_empty(monkeypatch):
    """Generation 0 returns its first three outputs, each with a slot, then
    crashes (``max_batch=1``: each request is a batch of its own).  The link
    starts both tables empty for generation 1, so the replay ships the
    repeated inputs by value again and generation 1's outputs take slots
    from 0, which the link expects."""
    spawned = _spawn_in_threads(monkeypatch)
    pool = [generate_image("natural", size=32, seed=seed) for seed in range(2)]
    requests = _pooled(10, pool)
    (reference,) = _reference(requests, max_batch=1)
    with _fleet(max_batch=1, fail_after={0: 3}) as fleet:
        responses = fleet.serve_trace(requests)
        metrics = fleet.metrics()

    assert [worker.spec.generation for worker in spawned] == [0, 1]
    assert metrics.worker_failures == 1 and metrics.failed == 0
    assert metrics.completed + metrics.shed + metrics.failed == len(requests)
    _assert_bit_identical(responses, reference)


def test_repeated_hotspot_inputs_send_both_grids_once(monkeypatch):
    """A ``HotspotInput`` carries two arrays; a repeated one crosses as two
    slot numbers."""
    calibration = {"hotspot": [hotspot_single(size=32, seed=77)]}
    pool = [hotspot_single(size=32, seed=seed) for seed in (1, 2)]
    requests = _pooled(8, pool, app="hotspot")
    (reference,) = _reference(requests, calibration=calibration)
    _spawn_in_threads(monkeypatch)
    with PerforationFleet(workers=1, max_batch=4, calibration_inputs=calibration) as fleet:
        responses = fleet.serve_trace(requests)
        counts = _array_counts(fleet)

    _assert_bit_identical(responses, reference)
    assert counts["sent_by_value"] == 2 * len(pool)
    assert counts["sent_by_ref"] == 2 * (len(requests) - len(pool))
