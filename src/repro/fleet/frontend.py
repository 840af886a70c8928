"""Asyncio front-end of the serving fleet.

:class:`PerforationFleet` scales the single-process
:class:`~repro.serve.server.PerforationServer` horizontally: N worker
processes, each a full warm-started server, behind one asyncio front-end
that routes requests by the scheduler's batch-compat key
(:mod:`repro.fleet.sharding`) and merges the workers' metrics registries
into one fleet-level :class:`~repro.serve.metrics.ServeMetrics` view.

The design preserves the serve subsystem's determinism guarantees:

**Routing is planned per trace.**  Each :meth:`PerforationFleet.serve_trace`
call places the trace's (application, size) streams on workers
with a fresh :meth:`ShardMap.for_trace <repro.fleet.sharding.ShardMap.for_trace>`
plan, so within one trace every request of a stream lands on the same
worker.  That worker's scheduler and online controller see exactly the
observation subsequence the single-process server would see and
reproduce its decisions — and therefore its outputs — bit-identically
(pinned by ``tests/fleet/test_fleet.py``).  Across traces this holds only
for streams the plan does not move: a moved stream's controller state
stays on its old worker.

**Workers start warm.**  The front-end calibrates every application it
has calibration inputs for once, in process, through the same
:meth:`OnlineController.ladder <repro.serve.controller.OnlineController.ladder>`
path a single server uses, and ships the resulting ladders in each
worker's :class:`WorkerSpec`.  A cold worker seeds its controller with
them and calibrates nothing itself (the ``hello`` report and every
``metrics`` frame count the ladders a worker calibrated on its own: zero).

**Admission control is explicit.**  Each shard tolerates at most
``max_pending`` outstanding (sent but unserved) requests; beyond that the
front-end sheds the request and returns an explicit ``rejected`` response
instead of queueing without bound.

**Worker failure is survivable.**  The front-end keeps, per worker, the
exact ordered log of everything it sent (the worker's *observation
subsequence*).  When a worker fails — its connection reaches EOF, it
sends a fatal ``error`` frame, or no frame arrives within
``request_timeout_s`` while work is outstanding — the front-end respawns
it from the same :class:`WorkerSpec` (bumping the spec's ``generation``)
with bounded backoff and replays the log.  Because the respawned worker
warm-starts from the same shipped ladders and then observes the same
subsequence in the same order, it reproduces the dead worker's
scheduler and controller decisions — and therefore the trace's outputs —
**bit-identically**; re-delivered responses simply overwrite their
identical predecessors.  After ``max_respawns`` failures of the same
shard the front-end degrades gracefully instead of hanging: the shard's
outstanding and future requests are answered with explicit *failed*
responses.  Accounting stays exact throughout:
``completed + shed + failed == len(trace)``.  The log is kept only while
``max_respawns > 0`` and is dropped when its shard degrades: nothing can
replay it then.

Internals that make replay sound: the front-end assigns every request a
globally unique *wire id* (a monotone sequence number, mapped back before
responses are returned), so a replayed response from an earlier trace can
never collide with a current request id; drain frames carry a sequence
tag the worker echoes, so a historical drain's echo is distinguishable
from the current trace's.  The wire-id rewrite is order-preserving, which
is why it cannot perturb the scheduler's deterministic tie-breaking.

Each worker slot is one :class:`_WorkerLink`: it owns the process, the
connection, the replay log, the outstanding set, the account of delivered
metrics and recovery.  Per trace a link runs one sender task (fed by the
shard's :class:`asyncio.Queue`) and one reader task (draining responses as
the worker produces them), so a slow shard never head-of-line blocks the
others.  Each time the sender wakes up it takes every entry already
queued and writes the requests among them as ``serve`` frames of up to
:data:`FRAME_PAYLOAD_CAP` bytes of array payload each, so a request pays
its share of one frame's header, write and drain rather than a frame of
its own; the worker answers each frame with one ``completed`` frame.
The link's send lock serialises the sender against recovery: a
request is appended to the replay log *before* its frame is written, so
every request is delivered exactly once per worker generation — by the
original write or by the replay, never both.  Replay cuts the log into
frames at the same cap.  Recovery aborts the failed
worker's connection *before* it takes that lock: a sender blocked writing
to a wedged worker (whose socket buffer is full) holds the lock, and only
the abort wakes it.  A link reaches its worker over one
:func:`socket.socketpair`, made when the worker is spawned: the worker
holds one end and the link the other, so either side's exit is the other
side's end of file.  Frames are length-prefixed, a JSON header plus raw
array buffers (:mod:`repro.fleet.protocol`).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket
import time
from typing import Iterable, Iterator, Mapping, Sequence

from ..api.engine import PerforationEngine
from ..clsim.backends import resolve_backend
from ..core.errors import PerforationError
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from ..serve.controller import OnlineController
from ..serve.metrics import ServeMetrics
from ..serve.requests import ServeRequest, ServeResponse
from .protocol import (
    ProtocolError,
    array_bytes,
    read_frame_async,
    request_to_wire,
    response_from_wire,
    write_frame_async,
)
from .sharding import ShardMap, shard_key
from .worker import WorkerSpec, worker_main

#: How long to wait for a worker to say hello.
SPAWN_TIMEOUT_S = 120.0

#: How long shutdown waits per worker before escalating to terminate().
SHUTDOWN_TIMEOUT_S = 10.0

#: Respawn backoff: base * 2**(attempt-1), bounded by the cap.
RESPAWN_BACKOFF_S = 0.05
RESPAWN_BACKOFF_MAX_S = 2.0

#: Array payload (bytes) at which the sender cuts a ``serve`` frame: a
#: frame holds requests up to this many bytes of inputs, and a request
#: larger than the cap travels alone.
FRAME_PAYLOAD_CAP = 1 << 20

#: Kinds of replay-log entries: one request, or the end-of-trace drain.
_SERVE = "serve"
_DRAIN = "drain"


class FleetError(PerforationError):
    """A fleet worker failed unrecoverably, or the fleet is in an unusable state."""


def _unserved_response(request: ServeRequest, reason: str) -> ServeResponse:
    return ServeResponse(
        request_id=request.request_id,
        app=request.app,
        config_label="",
        output=None,
        error=None,
        rejected=True,
        batch_size=0,
        completed_ms=request.arrival_ms,
        metadata={"reason": reason},
    )


def rejected_response(request: ServeRequest) -> ServeResponse:
    """The explicit response of a load-shed request (it never executed)."""
    return _unserved_response(request, "admission-control")


def failed_response(request: ServeRequest, reason: str = "worker-failure") -> ServeResponse:
    """The explicit response of a request failed by the fleet.

    Produced when a worker reports a request-scoped error
    (``reason="worker-error"``), when a shard exhausts its respawn budget
    with the request outstanding (``"worker-failure"``), when a request
    routes to a shard already degraded (``"shard-degraded"``), or when its
    inputs cannot be encoded for the wire (``"invalid-input"``).  Like a
    shed request it carries ``rejected=True`` — it never completed — but
    is counted separately (:attr:`ServeMetrics.failed`) so the exact
    accounting invariant ``completed + shed + failed == len(trace)``
    distinguishes overload from failure.
    """
    return _unserved_response(request, reason)


def _frames(entries: Iterable[tuple], invalid: list[ServeRequest]) -> Iterator[dict]:
    """The wire frames of replay-log entries, in order.

    Runs of requests share ``serve`` frames cut at :data:`FRAME_PAYLOAD_CAP`
    bytes of array payload; a drain is a frame of its own.  A request whose
    input cannot be encoded is left out, so it cannot take its frame (or
    the drain behind it) down with it; it goes to ``invalid`` instead, for
    the caller to fail.
    """
    requests: list[dict] = []
    payload = 0
    for kind, item in entries:
        if kind == _SERVE:
            try:
                wire = request_to_wire(item)
            except ProtocolError:
                invalid.append(item)
                continue
            size = array_bytes(item.inputs)
            if requests and payload + size > FRAME_PAYLOAD_CAP:
                yield {"type": "serve", "requests": requests}
                requests, payload = [], 0
            requests.append(wire)
            payload += size
            continue
        if requests:
            yield {"type": "serve", "requests": requests}
            requests, payload = [], 0
        now_ms, seq = item
        yield {"type": "drain", "now_ms": now_ms, "seq": seq}
    if requests:
        yield {"type": "serve", "requests": requests}


class _Trace:
    """What one :meth:`PerforationFleet.serve_trace` call shares with its links."""

    def __init__(self, front: ServeMetrics) -> None:
        self.front = front
        self.tracer = get_tracer()
        #: Wire id → original request, for this trace only.
        self.requests: dict[int, ServeRequest] = {}
        self.responses: dict[int, ServeResponse] = {}
        #: Wire id → enqueue time, for front-end ``fleet.request`` spans.
        self.enqueued_ns: dict[int, int] = {}

    def fail(self, request: ServeRequest, reason: str) -> None:
        if request.request_id in self.responses:
            return
        self.responses[request.request_id] = failed_response(request, reason)
        self.front.record_failed()


class _WorkerLink:
    """One worker slot: its process, connection, replay log and recovery.

    Recovery replaces the process and the connection and keeps the rest.
    :meth:`spawn` is the only place a process starts; a test may replace
    it to run the worker without one.
    """

    def __init__(self, fleet: PerforationFleet, index: int) -> None:
        self.fleet = fleet
        self.index = index
        self.proc = None
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        #: Held by the sender across a log append and its write, and by
        #: recovery across respawn and replay.
        self.lock = asyncio.Lock()
        #: Every entry sent, in order; replayed on respawn.  Kept only while
        #: the fleet may respawn, and dropped when the shard degrades.
        self.log: list[tuple] = []
        #: Wire ids sent to this worker and not yet answered.
        self.pending: set[int] = set()
        #: Metrics of every response this slot delivered first.
        self.delivered = ServeMetrics()
        self.dead = False
        self.failures = 0
        self.queue: asyncio.Queue | None = None
        #: The current trace's drain tag, once its drain is queued.
        self.drain_seq: int | None = None

    # -- lifecycle -------------------------------------------------------
    async def spawn(self, spec: WorkerSpec):
        """Start ``spec``'s worker process on a socket pair: ``(reader, writer)``.

        The worker gets one end as its argument; multiprocessing hands the
        descriptor to the child.  The front-end's copy of that end is closed
        once the child holds it, so the worker's exit is this end's EOF.
        """
        front, back = socket.socketpair()
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(
            target=worker_main,
            args=(spec, back),
            name=f"repro-fleet-worker-{spec.index}",
            daemon=True,
        )
        try:
            proc.start()
        except BaseException:
            front.close()
            raise
        finally:
            back.close()
        self.proc = proc  # only once started: retire() joins it
        return await asyncio.open_unix_connection(sock=front)

    async def connect(self, generation: int = 0) -> dict:
        """Spawn this slot's worker of ``generation`` and return its hello."""
        spec = self.fleet._worker_spec(self.index, generation)
        self.reader, self.writer = await self.spawn(spec)
        hello = await asyncio.wait_for(read_frame_async(self.reader), timeout=SPAWN_TIMEOUT_S)
        if hello is not None and hello.get("type") == "error":
            # The worker could not build its server and reported why
            # instead of saying hello: fail fast with the real cause.
            raise FleetError(f"worker {self.index}: {hello.get('error', 'startup failed')}")
        if hello is None or hello.get("type") != "hello":
            raise FleetError(f"worker {self.index} did not say hello (got {hello!r})")
        return hello

    async def ask(self, frame: dict, timeout: float) -> dict | None:
        """Send one frame and return the worker's reply (``None`` at EOF)."""
        await write_frame_async(self.writer, frame)
        return await asyncio.wait_for(read_frame_async(self.reader), timeout=timeout)

    def retire(self) -> None:
        """Abort the connection and reap the process, escalating to kill."""
        if self.writer is not None and not self.writer.transport.is_closing():
            # abort(), not close(): close() would wait to flush a buffer a
            # wedged worker never reads.
            self.writer.transport.abort()
        proc = self.proc
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)

    # -- serving ---------------------------------------------------------
    def serve(self, trace: _Trace) -> list[asyncio.Task]:
        """Open a trace: a fresh queue, and sender and reader tasks if alive."""
        self.queue = asyncio.Queue()
        self.drain_seq = None
        if self.dead:
            return []
        name = f"worker {self.index}"
        return [
            asyncio.create_task(self._send(trace), name=f"{name} sender"),
            asyncio.create_task(self._read(trace), name=f"{name} reader"),
        ]

    async def _send(self, trace: _Trace) -> None:
        keep_log = self.fleet.max_respawns > 0
        queue = self.queue
        while True:
            # One wake-up sends every entry queued by now.  The trace's end
            # marker (None) is always the last entry ever queued.
            entries = [await queue.get()]
            while not queue.empty():
                entries.append(queue.get_nowait())
            ended = entries[-1] is None
            if ended:
                entries.pop()
            async with self.lock:
                # A dead shard's work was already failed by recovery.
                if entries and not self.dead:
                    if keep_log:
                        self.log.extend(entries)
                    invalid: list[ServeRequest] = []
                    for frame in _frames(entries, invalid):
                        try:
                            await write_frame_async(self.writer, frame)
                        except Exception:
                            # The connection died mid-write, or the frame is
                            # over MAX_FRAME_BYTES.  The entries are in the
                            # log, so the reader's recovery replays them —
                            # retrying here would deliver them twice.
                            pass
                    self.fail_invalid(trace, invalid)
            if ended:
                return

    async def _read(self, trace: _Trace) -> None:
        timeout = self.fleet.request_timeout_s
        while True:
            expecting = bool(self.pending) or self.drain_seq is not None
            try:
                if timeout is not None:
                    frame = await asyncio.wait_for(read_frame_async(self.reader), timeout=timeout)
                else:
                    frame = await read_frame_async(self.reader)
            except asyncio.TimeoutError:
                if not expecting:
                    continue  # idle silence is fine; re-arm
                failure = f"no frame within {timeout:g}s with {len(self.pending)} outstanding"
            except Exception as exc:
                failure = f"{type(exc).__name__}: {exc}"
            else:
                kind = None if frame is None else frame.get("type")
                if kind == "completed" or kind == "drained":
                    self.record(trace, frame.get("responses", []))
                    if kind == "drained":
                        spans = frame.get("spans")
                        if spans:
                            # Worker-side spans ship on the drained frame and
                            # merge into the front-end's single trace (the
                            # worker labelled them with its process name).
                            trace.tracer.ingest(spans)
                        if frame.get("seq") == self.drain_seq:
                            return
                        # Otherwise a replayed historical drain's echo: absorb it.
                    continue
                if kind == "error" and frame.get("request_id") is not None:
                    wire_id = int(frame["request_id"])
                    self.pending.discard(wire_id)
                    original = trace.requests.get(wire_id)
                    if original is not None:
                        trace.fail(original, "worker-error")
                    continue  # request-scoped: the trace goes on
                if frame is None:
                    failure = "connection closed mid-trace"
                elif kind == "error":
                    failure = str(frame.get("error"))
                else:
                    failure = f"unexpected {kind!r} frame"
            if not await self.recover(trace, failure):
                return

    def record(self, trace: _Trace, wires: list) -> None:
        """Deliver one frame's responses, mapping wire ids back to request ids."""
        tracer = trace.tracer
        requests = trace.requests
        responses = trace.responses
        pending = self.pending
        delivered = self.delivered
        # A frame carries whole micro-batches, each as a run of
        # batch_size responses: count a batch where its run starts.
        left_in_batch = 0
        for wire in wires:
            wire_id = wire["request_id"]
            original = requests.get(wire_id)
            if original is not None:
                # Decode the response with the caller's id: built once, final.
                wire["request_id"] = original.request_id
            response = response_from_wire(wire)
            batch_start = left_in_batch == 0
            if batch_start:
                left_in_batch = response.batch_size
            left_in_batch -= 1
            pending.discard(wire_id)
            if tracer.enabled and original is not None:
                start_ns = trace.enqueued_ns.pop(wire_id, None)
                if start_ns is not None:
                    tracer.record(
                        "fleet.request",
                        category="fleet",
                        start_ns=start_ns,
                        duration_ns=time.monotonic_ns() - start_ns,
                        trace_id=original.trace_label,
                        worker=self.index,
                        app=original.app,
                        wire_id=wire_id,
                    )
            if original is None:
                # A replayed worker re-delivering an earlier trace's
                # response (bit-identical to what was already returned).
                continue
            existing = responses.get(original.request_id)
            if existing is None:
                responses[original.request_id] = response
                if batch_start:
                    delivered.record_batch(response.batch_size)
                delivered.record_response(response, original.error_budget)
            elif not existing.rejected:
                # Replay re-delivery of a response this trace already
                # saw; identical by construction, so overwriting is a
                # no-op in value terms.
                responses[original.request_id] = response

    # -- failure ---------------------------------------------------------
    async def recover(self, trace: _Trace, reason: str) -> bool:
        """Respawn this slot and replay its log; ``False`` once the shard degrades.

        The failed worker is retired *before* the send lock is taken: a
        sender blocked writing to a wedged worker holds the lock, and
        aborting the connection is what wakes it.
        """
        fleet = self.fleet
        trace.tracer.point("fleet.recover", category="fleet", worker=self.index, reason=reason)
        self.retire()
        async with self.lock:
            while True:
                self.failures += 1
                fleet._front_metrics.worker_failures += 1
                if self.failures > fleet.max_respawns:
                    self.dead = True
                    self.log.clear()  # nothing can replay it now
                    self.fail_pending(trace, "worker-failure")
                    return False
                await asyncio.sleep(
                    min(RESPAWN_BACKOFF_S * 2 ** (self.failures - 1), RESPAWN_BACKOFF_MAX_S)
                )
                try:
                    fleet.respawn_reports.append(await self.connect(self.failures))
                    recovered = len(self.pending)
                    invalid: list[ServeRequest] = []
                    for frame in _frames(self.log, invalid):
                        await write_frame_async(self.writer, frame)
                    # Failed when first sent: failing them again is a no-op.
                    self.fail_invalid(trace, invalid)
                except Exception:
                    # The replacement failed to start or died during
                    # replay; that is the slot's next failure.
                    self.retire()
                    continue
                fleet._front_metrics.replayed += recovered
                return True

    def fail_pending(self, trace: _Trace, reason: str) -> None:
        for wire_id in sorted(self.pending):
            trace.fail(trace.requests[wire_id], reason)
        self.pending.clear()

    def fail_invalid(self, trace: _Trace, invalid: list[ServeRequest]) -> None:
        """Fail requests whose inputs could not go on the wire, at once: a
        caller's bad input is not a worker loss."""
        for wire_request in invalid:
            self.pending.discard(wire_request.request_id)
            original = trace.requests.get(wire_request.request_id)
            if original is not None:
                trace.fail(original, "invalid-input")


class PerforationFleet:
    """N warm-started server processes behind one asyncio front-end.

    Parameters
    ----------
    workers:
        Number of worker processes (each a full
        :class:`~repro.serve.server.PerforationServer`).
    backend / device / max_batch / max_delay_ms / cache_capacity:
        Forwarded to every worker's engine and server (same meaning as the
        single-process constructors).
    calibration_inputs:
        Application name → representative calibration inputs.
        :meth:`start` calibrates these applications once, in process, and
        ships their ladders to every worker, so no worker calibrates them
        itself.  A worker calibrates any other application lazily, on its
        default input, as a single server does.
    max_pending:
        Admission-control bound: maximum outstanding (sent but unserved)
        requests per shard before the front-end sheds.
    runtime_dir:
        Ignored.  Workers are reached over socket pairs, so the fleet
        makes no socket path and no directory; the keyword is kept because
        existing callers (perfbench's fleet workload) still pass it.
    request_timeout_s:
        Failure detector: if no frame arrives from a worker within this
        many seconds while it has outstanding work, the worker is treated
        as hung and recovered.  A worker answers a ``serve`` frame only
        once it has submitted every request the frame carries (up to
        :data:`FRAME_PAYLOAD_CAP` bytes of inputs, and each submission may
        run micro-batches that became due), so the timeout must
        comfortably exceed the time it takes to serve one frame's
        requests — a worker that is merely slow would be killed and
        replayed (correct, but wasted work).  ``None`` (default) disables
        the timeout; EOF and fatal error frames are always detected.
    max_respawns:
        Recovery budget per worker slot.  Failure ``k`` of a slot
        triggers respawn-and-replay while ``k <= max_respawns``; beyond
        that the shard degrades gracefully — outstanding and future
        requests are answered with explicit failed responses instead of
        hanging the trace.  Replay re-sends the slot's whole observation
        subsequence, so the front-end keeps a log of everything sent to
        each worker; ``0`` keeps no log (the first failure degrades the
        shard).
    fail_after / error_on / hang_on / chaos_persistent:
        Deterministic fault injection for the chaos suite and
        ``serve-bench --chaos``: ``fail_after`` maps worker index → crash
        the worker (hard exit) after it handled that many requests;
        ``error_on`` lists wire request ids the workers answer with
        request-scoped error frames; ``hang_on`` lists wire request ids
        the workers hang on instead of serving (detectable only by
        ``request_timeout_s``).  Wire ids are assigned in arrival order
        starting at 0 for the fleet's first trace.  Respawned workers
        drop ``fail_after``/``hang_on`` unless ``chaos_persistent=True``
        (which makes the fault recur until the respawn budget runs out).
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        backend: str = "codegen",
        device: str | None = None,
        max_batch: int = 8,
        max_delay_ms: float = 50.0,
        calibration_inputs: Mapping[str, Sequence] | None = None,
        max_pending: int = 256,
        cache_capacity: int = 256,
        runtime_dir: str | os.PathLike | None = None,
        request_timeout_s: float | None = None,
        max_respawns: int = 2,
        fail_after: Mapping[int, int] | None = None,
        error_on: Sequence[int] | None = None,
        hang_on: Sequence[int] | None = None,
        chaos_persistent: bool = False,
    ) -> None:
        if workers < 1:
            raise FleetError(f"workers must be >= 1, got {workers}")
        if max_pending < 1:
            raise FleetError(f"max_pending must be >= 1, got {max_pending}")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise FleetError(
                f"request_timeout_s must be positive or None, got {request_timeout_s}"
            )
        if max_respawns < 0:
            raise FleetError(f"max_respawns must be >= 0, got {max_respawns}")
        self.workers = int(workers)
        self.backend_name = resolve_backend(backend).name
        self.device = device
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        self.calibration_inputs = dict(calibration_inputs or {})
        #: Application name → the ladder :meth:`start` calibrated for it.
        self.ladders: dict[str, tuple] = {}
        self.max_pending = int(max_pending)
        self.cache_capacity = cache_capacity
        self.request_timeout_s = request_timeout_s
        self.max_respawns = int(max_respawns)
        self.fail_after = dict(fail_after or {})
        self.error_on = tuple(error_on or ())
        self.hang_on = tuple(hang_on or ())
        self.chaos_persistent = bool(chaos_persistent)
        #: Per-worker hello frames (pid, generation, shipped ladders, and
        #: how many ladders the worker calibrated itself).
        self.warm_reports: list[dict] = []
        #: Hello frames of respawned workers (recovery warm starts).
        self.respawn_reports: list[dict] = []
        self._links: list[_WorkerLink] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = False
        self._closed = False
        self._wire_seq = 0
        self._drain_seq = 0
        #: The front-end's shed/failed/recovery counters and the fleet wall
        #: clock, accumulated across traces.
        self._front_metrics = ServeMetrics()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PerforationFleet":
        """Calibrate the ladders, spawn the workers, read their hellos.

        Partial startup failures (a worker that fails to start or dies
        before saying hello, a worker whose server fails to build) tear the
        fleet down completely: already-spawned workers are terminated
        before the error propagates.
        """
        if self._closed:
            raise FleetError("fleet is closed")
        if self._started:
            return self
        try:
            if self.calibration_inputs:
                controller = OnlineController(
                    PerforationEngine(device=self.device), self.calibration_inputs
                )
                self.ladders = {
                    app: tuple(controller.ladder(app)) for app in sorted(self.calibration_inputs)
                }
            self._loop = asyncio.new_event_loop()
            self._links = [_WorkerLink(self, index) for index in range(self.workers)]
            self.warm_reports = self._loop.run_until_complete(self._connect_links())
        except BaseException:
            self.close()
            raise
        self._started = True
        return self

    async def _connect_links(self) -> list[dict]:
        tasks = [asyncio.ensure_future(link.connect()) for link in self._links]
        try:
            return list(await asyncio.gather(*tasks))  # gather keeps worker order
        finally:
            for task in tasks:
                task.cancel()  # after a failure, stop the spawns still running

    def _worker_spec(self, index: int, generation: int = 0) -> WorkerSpec:
        chaos_fail = self.fail_after.get(index)
        chaos_hang = self.hang_on
        if generation > 0 and not self.chaos_persistent:
            chaos_fail = None
            chaos_hang = ()
        return WorkerSpec(
            index=index,
            backend=self.backend_name,
            device=self.device,
            max_batch=self.max_batch,
            max_delay_ms=self.max_delay_ms,
            ladders=self.ladders,
            cache_capacity=self.cache_capacity,
            generation=generation,
            # Workers trace when the front-end traces (at spawn time), so
            # their spans come back on drained/metrics frames and merge
            # into the front-end's single trace.
            trace=get_tracer().enabled,
            fail_after=chaos_fail,
            error_on=self.error_on,
            hang_on=chaos_hang,
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_trace(self, trace: Iterable[ServeRequest]) -> list[ServeResponse]:
        """Serve a whole trace across the fleet (virtual arrival order).

        Returns one response per request — served, explicitly rejected
        (shed), or explicitly failed — sorted by request id.  Accounting
        is exact: ``metrics().completed + metrics().shed +
        metrics().failed`` equals the number of requests submitted so far.
        """
        ordered = sorted(trace, key=lambda r: (r.arrival_ms, r.request_id))
        if not ordered:
            return []  # nothing to do — don't even spawn the workers
        self.start()
        return self._run(self._serve_async(ordered))

    def _run(self, coro):
        if self._loop is None or self._closed:
            raise FleetError("fleet is closed")
        return self._loop.run_until_complete(coro)

    async def _serve_async(self, ordered: list[ServeRequest]) -> list[ServeResponse]:
        shards = ShardMap.for_trace(ordered, self.workers)
        wall_start = time.perf_counter()
        trace = _Trace(self._front_metrics)
        tracer = trace.tracer
        links = self._links
        tasks = [task for link in links for task in link.serve(trace)]
        shed: list[ServeRequest] = []

        for request in ordered:
            link = links[shards.assign(shard_key(request))]
            # One event-loop pass so the readers can retire responses the
            # workers already produced — pending reflects delivered state.
            await asyncio.sleep(0)
            if link.dead:
                trace.fail(request, "shard-degraded")
                continue
            if len(link.pending) >= self.max_pending:
                shed.append(request)
                self._front_metrics.record_shed()
                continue
            wire_id = self._wire_seq
            self._wire_seq += 1
            trace.requests[wire_id] = request
            link.pending.add(wire_id)
            if tracer.enabled:
                trace.enqueued_ns[wire_id] = time.monotonic_ns()
            wire_request = ServeRequest(
                request_id=wire_id,
                app=request.app,
                inputs=request.inputs,
                error_budget=request.error_budget,
                arrival_ms=request.arrival_ms,
                latency_budget_ms=request.latency_budget_ms,
                priority=request.priority,
                # Traced, the correlation id is the caller's request label, so
                # front-end and worker spans agree on it; untraced frames
                # stay byte-identical to the pre-tracing protocol.
                trace_id=request.trace_label if tracer.enabled else request.trace_id,
            )
            await link.queue.put((_SERVE, wire_request))

        # Drain at the last *global* arrival — exactly the virtual time
        # PerforationServer.run_trace drains at, which is what keeps batch
        # deadline stamps (and therefore outputs) bit-identical.
        last_arrival = ordered[-1].arrival_ms
        for link in links:
            if not link.dead:
                self._drain_seq += 1
                link.drain_seq = self._drain_seq
                await link.queue.put((_DRAIN, (last_arrival, self._drain_seq)))
            await link.queue.put(None)

        results = await asyncio.gather(*tasks, return_exceptions=True)
        errors = [
            f"{task.get_name()}: {type(result).__name__}: {result}"
            for task, result in zip(tasks, results)
            if isinstance(result, BaseException)
        ]
        # Defensive: a reader that returned with work still outstanding
        # (it cannot, short of a worker-side protocol bug) must not cost
        # the caller a response — fail the stragglers explicitly.
        for link in links:
            link.fail_pending(trace, "worker-failure")
        if errors:
            raise FleetError("; ".join(errors))

        front = self._front_metrics
        front.finish((front.wall_time_s or 0.0) + (time.perf_counter() - wall_start))
        responses = [rejected_response(request) for request in shed]
        responses.extend(trace.responses.values())
        responses.sort(key=lambda response: response.request_id)
        return responses

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def worker_metrics(self) -> list[dict]:
        """Per-worker ``{"metrics": ServeMetrics, "controller": ...}`` snapshots.

        Each ``metrics`` is a view over the registry the worker shipped on
        its ``metrics`` frame (serving metrics plus cache statistics); each
        ``controller`` holds the online controller's per-stream state
        (``"streams"``) and how many ladders it calibrated itself
        (``"calibrated"``).  A degraded (permanently failed) shard cannot
        report; its entry holds the metrics of the responses it delivered
        before dying, with ``"controller": None`` and ``"dead": True``.
        """
        self.start()
        return self._run(self._collect_metrics())

    async def _collect_metrics(self) -> list[dict]:
        snapshots = []
        for link in self._links:
            if link.dead:
                delivered = ServeMetrics().merge(link.delivered)  # a copy
                snapshots.append({"metrics": delivered, "controller": None, "dead": True})
                continue
            frame = await link.ask({"type": "metrics"}, SPAWN_TIMEOUT_S)
            if frame is None or frame.get("type") != "metrics":
                raise FleetError(f"worker {link.index} returned no metrics (got {frame!r})")
            spans = frame.get("spans")
            if spans:
                get_tracer().ingest(spans)
            snapshots.append(
                {
                    "metrics": ServeMetrics.view(
                        obs_metrics.MetricsRegistry.from_dict(frame["metrics"])
                    ),
                    "controller": frame["controller"],
                }
            )
        return snapshots

    def metrics(self) -> ServeMetrics:
        """Fleet-level serving metrics: a view of :meth:`observability`."""
        return ServeMetrics.view(self.observability())

    def observability(self) -> obs_metrics.MetricsRegistry:
        """Fleet-wide :class:`~repro.obs.metrics.MetricsRegistry`.

        Merges every worker's registry in index order (serving metrics,
        all cache stats and controller decisions in one shape) with the
        front-end's shed/failed/recovery counters.  The fleet wall clock,
        accumulated across traces, overrides the workers' own.  Collecting
        also pulls any worker-buffered spans into the front-end's tracer as
        a side effect.
        """
        registry = obs_metrics.MetricsRegistry()
        for snapshot in self.worker_metrics():
            registry.merge(snapshot["metrics"].registry)
        registry.merge(self._front_metrics.registry)
        wall = self._front_metrics.wall_time_s
        if wall is not None:
            ServeMetrics.view(registry).finish(wall)
        registry.gauge("fleet.workers").set(self.workers)
        return registry

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and close the loop."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and not self._loop.is_closed():
            try:
                self._loop.run_until_complete(self._shutdown())
            except Exception:
                pass
            finally:
                self._loop.close()
        for link in self._links:
            if self._started and link.proc is not None:
                # A started fleet said shutdown above — give workers a
                # moment to say bye; a partially-started one did not, so
                # waiting would just time out.
                link.proc.join(timeout=SHUTDOWN_TIMEOUT_S)
            link.retire()
        self._links = []

    async def _shutdown(self) -> None:
        for link in self._links:
            if link.writer is None or link.dead:
                continue  # never connected, or already retired by recovery
            if self._started:
                try:
                    await link.ask({"type": "shutdown"}, SHUTDOWN_TIMEOUT_S)
                except Exception:
                    pass
            try:
                link.writer.close()
                await link.writer.wait_closed()
            except Exception:
                pass

    def __enter__(self) -> "PerforationFleet":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("started" if self._started else "new")
        return f"<PerforationFleet workers={self.workers} {state}>"
