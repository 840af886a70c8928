"""Asyncio front-end of the serving fleet.

:class:`PerforationFleet` scales the single-process
:class:`~repro.serve.server.PerforationServer` horizontally: N worker
processes, each a full warm-started server, behind one asyncio front-end
that routes requests by the scheduler's batch-compat key
(:mod:`repro.fleet.sharding`) and merges the workers' metrics registries
into one fleet-level :class:`~repro.serve.metrics.ServeMetrics` view.

The design preserves the serve subsystem's determinism guarantees:

**Routing is a pure function of the request.**  Every request of an
(application, backend, size) stream lands on the same worker, so that
worker's scheduler and online controller see exactly the observation
subsequence the single-process server would see and reproduce its
decisions — and therefore its outputs — bit-identically (pinned by
``tests/fleet/test_fleet.py``).

**Workers start warm.**  The front-end calibrates every application once
into a tuning database under its runtime directory, then ships the path
to the workers, which open it **read-only**: a cold worker restores its
controller ladders with zero kernel evaluations (the ``hello`` report
proves it — zero DB misses, zero puts).

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
warm-starts read-only from the same tuning database and then observes the
same subsequence in the same order, it reproduces the dead worker's
scheduler and controller decisions — and therefore the trace's outputs —
**bit-identically**; re-delivered responses simply overwrite their
identical predecessors.  After ``max_respawns`` failures of the same
shard the front-end degrades gracefully instead of hanging: the shard's
outstanding and future requests are answered with explicit *failed*
responses.  Accounting stays exact throughout:
``completed + shed + failed == len(trace)``.

Internals that make replay sound: the front-end assigns every request a
globally unique *wire id* (a monotone sequence number, mapped back before
responses are returned), so a replayed response from an earlier trace can
never collide with a current request id; drain frames carry a sequence
tag the worker echoes, so a historical drain's echo is distinguishable
from the current trace's.  The wire-id rewrite is order-preserving, which
is why it cannot perturb the scheduler's deterministic tie-breaking.

Per worker the front-end runs one sender task (feeding a per-shard
:class:`asyncio.Queue`) and one reader task (draining responses as the
worker produces them), so a slow shard never head-of-line blocks the
others.  A per-worker lock serialises the sender against recovery: a
request is appended to the replay log *before* its frame is written, so
every request is delivered exactly once per worker generation — by the
original write or by the replay, never both.  Transports: unix-domain
sockets (default) or localhost TCP — the same length-prefixed frames (a
JSON header plus raw array buffers, :mod:`repro.fleet.protocol`) either
way.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..clsim.backends import resolve_backend
from ..core.errors import PerforationError
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from ..serve.controller import ControllerPolicy, OnlineController
from ..serve.metrics import ServeMetrics
from ..serve.requests import ServeRequest, ServeResponse
from .protocol import (
    read_frame_async,
    request_to_wire,
    response_from_wire,
    write_frame_async,
)
from .sharding import ShardMap, shard_key
from .worker import WorkerSpec, worker_main

#: Supported transports of the fleet.
TRANSPORTS = ("unix", "tcp")

#: How long to wait for a worker to bind, connect and say hello.
SPAWN_TIMEOUT_S = 120.0

#: How long shutdown waits per worker before escalating to terminate().
SHUTDOWN_TIMEOUT_S = 10.0

#: Respawn backoff: base * 2**(attempt-1), bounded by the cap.
RESPAWN_BACKOFF_S = 0.05
RESPAWN_BACKOFF_MAX_S = 2.0

#: Wire ids of one trace occupy a stride so multi-trace ids never collide.
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
        within_budget=False,
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
    with the request outstanding (``"worker-failure"``), or when a request
    routes to a shard already degraded (``"shard-degraded"``).  Like a
    shed request it carries ``rejected=True`` — it never completed — but
    is counted separately (:attr:`ServeMetrics.failed`) so the exact
    accounting invariant ``completed + shed + failed == len(trace)``
    distinguishes overload from failure.
    """
    return _unserved_response(request, reason)


class PerforationFleet:
    """N warm-started server processes behind one asyncio front-end.

    Parameters
    ----------
    workers:
        Number of worker processes (each a full
        :class:`~repro.serve.server.PerforationServer`).
    backend / device / max_batch / max_delay_ms / policy / cache_capacity /
    monitor / strict:
        Forwarded to every worker's server (same meaning as the
        single-process constructor).
    calibration_inputs:
        Application name → representative calibration inputs.  The
        front-end calibrates these applications once into the shared
        tuning database before spawning workers, so every worker
        warm-starts with zero kernel evaluations.
    warm_apps:
        Applications to warm eagerly (default: the calibration-input keys,
        sorted).
    warm:
        Set ``False`` to skip the front-end calibration pass (workers then
        calibrate lazily in-process — useful for cold-start experiments).
    max_pending:
        Admission-control bound: maximum outstanding (sent but unserved)
        requests per shard before the front-end sheds.
    transport:
        ``"unix"`` (default) or ``"tcp"`` (localhost).
    tuning_db / codegen_cache:
        Override the replicated store locations (defaults live under the
        fleet's runtime directory / the process environment).  A
        ``codegen_cache`` override is exported as ``REPRO_CODEGEN_CACHE``
        for the spawned workers; the prior value is restored on
        :meth:`close`.
    runtime_dir:
        Scratch directory for sockets and the tuning database; a private
        ``repro-fleet-*`` temp dir (removed on close) when not given.
        Unix-socket paths must stay short (the kernel limit is ~108
        bytes), which is why the default is :func:`tempfile.mkdtemp`
        rather than anything test-framework-provided.
    request_timeout_s:
        Failure detector: if no frame arrives from a worker within this
        many seconds while it has outstanding work, the worker is treated
        as hung and recovered.  Must comfortably exceed the worst-case
        micro-batch service time — a worker that is merely slow would be
        killed and replayed (correct, but wasted work).  ``None``
        (default) disables the timeout; EOF and fatal error frames are
        always detected.
    max_respawns:
        Recovery budget per worker slot.  Failure ``k`` of a slot
        triggers respawn-and-replay while ``k <= max_respawns``; beyond
        that the shard degrades gracefully — outstanding and future
        requests are answered with explicit failed responses instead of
        hanging the trace.
    replay:
        ``False`` disables recovery entirely: the first failure of a
        shard degrades it (as if its budget were exhausted).  Recovery
        replays the worker's full observation subsequence, so its cost —
        and the front-end's memory for the log — grows with everything
        the fleet has served; long-lived fleets that cannot afford that
        can opt out.
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
        policy: ControllerPolicy | None = None,
        calibration_inputs: Mapping[str, Sequence] | None = None,
        warm_apps: Sequence[str] | None = None,
        warm: bool = True,
        max_pending: int = 256,
        transport: str = "unix",
        tuning_db: str | os.PathLike | None = None,
        codegen_cache: str | os.PathLike | None = None,
        cache_capacity: int = 256,
        monitor: bool = True,
        strict: bool = True,
        runtime_dir: str | os.PathLike | None = None,
        request_timeout_s: float | None = None,
        max_respawns: int = 2,
        replay: bool = True,
        fail_after: Mapping[int, int] | None = None,
        error_on: Sequence[int] | None = None,
        hang_on: Sequence[int] | None = None,
        chaos_persistent: bool = False,
    ) -> None:
        if workers < 1:
            raise FleetError(f"workers must be >= 1, got {workers}")
        if transport not in TRANSPORTS:
            raise FleetError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
        if max_pending < 1:
            raise FleetError(f"max_pending must be >= 1, got {max_pending}")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise FleetError(
                f"request_timeout_s must be positive or None, got {request_timeout_s}"
            )
        if max_respawns < 0:
            raise FleetError(f"max_respawns must be >= 0, got {max_respawns}")
        self.workers = int(workers)
        self.backend_arg = backend
        self.backend_name = resolve_backend(backend).name
        self.device = device
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        self.policy = policy
        self.calibration_inputs = dict(calibration_inputs or {})
        self.warm = bool(warm)
        self.warm_apps = (
            tuple(warm_apps)
            if warm_apps is not None
            else tuple(sorted(self.calibration_inputs))
        )
        self.max_pending = int(max_pending)
        self.transport = transport
        self.cache_capacity = cache_capacity
        self.monitor = monitor
        self.strict = strict
        self.request_timeout_s = request_timeout_s
        self.max_respawns = int(max_respawns)
        self.replay = bool(replay)
        self.fail_after = dict(fail_after or {})
        self.error_on = tuple(error_on or ())
        self.hang_on = tuple(hang_on or ())
        self.chaos_persistent = bool(chaos_persistent)
        self._owns_runtime_dir = runtime_dir is None
        self.runtime_dir = (
            Path(tempfile.mkdtemp(prefix="repro-fleet-"))
            if runtime_dir is None
            else Path(runtime_dir)
        )
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        self.tuning_db_path = (
            Path(tuning_db) if tuning_db is not None else self.runtime_dir / "tuning-db"
        )
        self.codegen_cache_path = None if codegen_cache is None else Path(codegen_cache)
        #: Per-worker hello frames (pid, generation, calibrated apps, DB counters).
        self.warm_reports: list[dict] = []
        #: Hello frames of respawned workers (recovery warm starts).
        self.respawn_reports: list[dict] = []
        #: DB counters of the front-end's own calibration pass.
        self.parent_db_stats: dict | None = None
        self._specs: list[WorkerSpec] = []
        self._procs: list = []
        self._readers: list[asyncio.StreamReader] = []
        self._writers: list[asyncio.StreamWriter] = []
        self._send_locks: list[asyncio.Lock] = []
        #: Per worker, the ordered log of every frame-worth of work sent —
        #: the worker's exact observation subsequence, replayed on respawn.
        self._sent_log: list[list[tuple]] = []
        #: Per worker, the metrics of every response it first delivered —
        #: what a dead shard, which can no longer report, contributes.
        self._shard_metrics: list[ServeMetrics] = []
        self._dead: list[bool] = []
        self._failures: list[int] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = False
        self._closed = False
        self._env_applied = False
        self._prior_codegen_cache: str | None = None
        self._wire_seq = 0
        self._drain_seq = 0
        #: The front-end's shed/failed/recovery counters and the fleet wall
        #: clock, accumulated across traces.
        self._front_metrics = ServeMetrics()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PerforationFleet":
        """Warm the tuning database, spawn the workers, connect to them.

        Partial startup failures (a worker dying before reporting its
        address, a worker whose server fails to build) tear the fleet
        down completely: already-spawned workers are terminated, the
        runtime directory is removed, and the process environment is
        restored before the error propagates.
        """
        if self._closed:
            raise FleetError("fleet is closed")
        if self._started:
            return self
        self._apply_env()
        try:
            if self.warm and self.warm_apps:
                self._warm_database()
            self._specs = [self._worker_spec(index) for index in range(self.workers)]
            addresses = self._spawn_workers()
            self._loop = asyncio.new_event_loop()
            self._loop.run_until_complete(self._connect_all(addresses))
        except BaseException:
            self.close()
            raise
        self._send_locks = [asyncio.Lock() for _ in range(self.workers)]
        self._sent_log = [[] for _ in range(self.workers)]
        self._shard_metrics = [ServeMetrics() for _ in range(self.workers)]
        self._dead = [False] * self.workers
        self._failures = [0] * self.workers
        self._started = True
        return self

    def _apply_env(self) -> None:
        """Export the codegen-cache override, remembering the prior value."""
        if self.codegen_cache_path is None or self._env_applied:
            return
        self._prior_codegen_cache = os.environ.get("REPRO_CODEGEN_CACHE")
        os.environ["REPRO_CODEGEN_CACHE"] = str(self.codegen_cache_path)
        self._env_applied = True

    def _restore_env(self) -> None:
        if not self._env_applied:
            return
        if self._prior_codegen_cache is None:
            os.environ.pop("REPRO_CODEGEN_CACHE", None)
        else:
            os.environ["REPRO_CODEGEN_CACHE"] = self._prior_codegen_cache
        self._env_applied = False

    def _warm_database(self) -> None:
        """Calibrate every warm application once into the shared tuning DB."""
        from ..api.engine import PerforationEngine
        from ..autotune import Tuner, TuningDB

        engine = PerforationEngine(device=self.device, backend=self.backend_arg)
        db = TuningDB(self.tuning_db_path)
        tuner = Tuner(engine, db=db)
        controller = OnlineController(
            engine,
            policy=self.policy,
            calibration_inputs=self.calibration_inputs,
            tuner=tuner,
        )
        for app in self.warm_apps:
            controller.ladder(app)
        stats = db.stats()
        self.parent_db_stats = {
            "hits": stats.hits,
            "misses": stats.misses,
            "puts": stats.puts,
        }

    def _worker_spec(self, index: int, generation: int = 0) -> WorkerSpec:
        if self.transport == "unix":
            # A fresh socket path per generation: a crashed worker cannot
            # unlink its socket (no cleanup runs), so respawns must not
            # re-bind the stale path.
            name = (
                f"worker-{index}.sock"
                if generation == 0
                else f"worker-{index}.g{generation}.sock"
            )
            address: object = str(self.runtime_dir / name)
        else:
            address = ("127.0.0.1", 0)
        chaos_fail = self.fail_after.get(index)
        chaos_hang = self.hang_on
        if generation > 0 and not self.chaos_persistent:
            chaos_fail = None
            chaos_hang = ()
        return WorkerSpec(
            index=index,
            address=address,
            transport=self.transport,
            backend=self.backend_arg,
            device=self.device,
            max_batch=self.max_batch,
            max_delay_ms=self.max_delay_ms,
            policy=self.policy,
            calibration_inputs=self.calibration_inputs,
            warm_apps=self.warm_apps,
            tuning_db=str(self.tuning_db_path),
            tuning_db_readonly=True,
            codegen_cache=(
                None if self.codegen_cache_path is None else str(self.codegen_cache_path)
            ),
            cache_capacity=self.cache_capacity,
            monitor=self.monitor,
            strict=self.strict,
            generation=generation,
            # Workers trace when the front-end traces (at spawn time), so
            # their spans come back on drained/metrics frames and merge
            # into the front-end's single trace.
            trace=get_tracer().enabled,
            fail_after=chaos_fail,
            error_on=self.error_on,
            hang_on=chaos_hang,
        )

    def _spawn_one(self, spec: WorkerSpec):
        ctx = multiprocessing.get_context("spawn")
        receiver, sender = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=worker_main,
            args=(spec, sender),
            name=f"repro-fleet-worker-{spec.index}",
            daemon=True,
        )
        proc.start()
        sender.close()
        return proc, receiver

    def _spawn_workers(self) -> list:
        readies = []
        for index in range(self.workers):
            proc, receiver = self._spawn_one(self._specs[index])
            self._procs.append(proc)
            readies.append(receiver)
        addresses = []
        for index, receiver in enumerate(readies):
            try:
                if not receiver.poll(SPAWN_TIMEOUT_S):
                    raise FleetError(
                        f"worker {index} did not report its address "
                        f"within {SPAWN_TIMEOUT_S:.0f}s"
                    )
                addresses.append(receiver.recv())
            except (EOFError, OSError):
                raise FleetError(f"worker {index} died before reporting its address") from None
            finally:
                receiver.close()
        return addresses

    async def _connect_all(self, addresses: list) -> None:
        connected = await asyncio.gather(
            *(self._connect_one(index, address) for index, address in enumerate(addresses))
        )
        for reader, writer, hello in connected:  # gather preserves worker order
            self._readers.append(reader)
            self._writers.append(writer)
            self.warm_reports.append(hello)

    async def _connect_one(self, index: int, address):
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while True:
            try:
                if self.transport == "unix":
                    reader, writer = await asyncio.open_unix_connection(str(address))
                else:
                    host, port = address
                    reader, writer = await asyncio.open_connection(str(host), int(port))
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise FleetError(
                        f"cannot connect to worker {index} at {address!r}"
                    ) from None
                await asyncio.sleep(0.05)
        hello = await asyncio.wait_for(read_frame_async(reader), timeout=SPAWN_TIMEOUT_S)
        if hello is not None and hello.get("type") == "error":
            # The worker bound its socket but could not build its server;
            # it reported why instead of saying hello.  Fail fast with the
            # real cause rather than spinning out the spawn timeout.
            writer.close()
            raise FleetError(f"worker {index}: {hello.get('error', 'startup failed')}")
        if hello is None or hello.get("type") != "hello":
            raise FleetError(f"worker {index} did not say hello (got {hello!r})")
        return reader, writer, hello

    def _retire_worker(self, index: int) -> None:
        """Close a failed worker's transport and reap its process."""
        if index < len(self._writers) and self._writers[index] is not None:
            try:
                self._writers[index].close()
            except Exception:
                pass
        proc = self._procs[index] if index < len(self._procs) else None
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)

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
        shards = ShardMap.for_trace(ordered, self.workers, self.backend_name)
        wall_start = time.perf_counter()
        tracer = get_tracer()
        #: wire id → enqueue time, for front-end fleet.request spans.
        enqueued_ns: dict[int, int] = {}
        responses: dict[int, ServeResponse] = {}
        shed: list[ServeRequest] = []
        #: wire id → original request, for the current trace only.
        current_wire: dict[int, ServeRequest] = {}
        pending: list[set[int]] = [set() for _ in range(self.workers)]
        queues: list[asyncio.Queue] = [asyncio.Queue() for _ in range(self.workers)]
        drained = [asyncio.Event() for _ in range(self.workers)]
        drain_seq_expected: list[int | None] = [None] * self.workers
        failures: list[str] = []

        def fail_request(request: ServeRequest, reason: str) -> None:
            if request.request_id in responses:
                return
            responses[request.request_id] = failed_response(request, reason)
            self._front_metrics.record_failed()

        def fail_pending(index: int, reason: str) -> None:
            for wire_id in sorted(pending[index]):
                fail_request(current_wire[wire_id], reason)
            pending[index].clear()

        def degrade(index: int) -> None:
            """Out of respawn budget: fail the shard's work instead of hanging."""
            self._dead[index] = True
            fail_pending(index, "worker-failure")

        def record(index: int, wires: list) -> None:
            delivered = self._shard_metrics[index]
            # A frame carries whole micro-batches, each as a run of
            # batch_size responses: count a batch where its run starts.
            left_in_batch = 0
            for wire in wires:
                response = response_from_wire(wire)
                batch_start = left_in_batch == 0
                if batch_start:
                    left_in_batch = response.batch_size
                left_in_batch -= 1
                wire_id = response.request_id
                pending[index].discard(wire_id)
                original = current_wire.get(wire_id)
                if tracer.enabled and original is not None:
                    start_ns = enqueued_ns.pop(wire_id, None)
                    if start_ns is not None:
                        tracer.record(
                            "fleet.request",
                            category="fleet",
                            start_ns=start_ns,
                            duration_ns=time.monotonic_ns() - start_ns,
                            trace_id=original.trace_label,
                            worker=index,
                            app=original.app,
                            wire_id=wire_id,
                        )
                if original is None:
                    # A replayed worker re-delivering an earlier trace's
                    # response (bit-identical to what was already returned).
                    continue
                response = replace(response, request_id=original.request_id)
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

        def frame_for(entry: tuple) -> dict:
            kind, payload = entry
            if kind == _SERVE:
                return {"type": "serve", "request": request_to_wire(payload)}
            now_ms, seq = payload
            return {"type": "drain", "now_ms": now_ms, "seq": seq}

        async def respawn(index: int) -> None:
            """One respawn attempt; raises if the new worker fails too."""
            generation = self._failures[index]
            spec = self._worker_spec(index, generation=generation)
            self._specs[index] = spec
            proc, receiver = self._spawn_one(spec)
            self._procs[index] = proc
            try:
                deadline = time.monotonic() + SPAWN_TIMEOUT_S
                while not receiver.poll(0):
                    if time.monotonic() > deadline:
                        raise FleetError(
                            f"respawned worker {index} (generation {generation}) "
                            "did not report its address"
                        )
                    await asyncio.sleep(0.02)
                address = receiver.recv()
            except (EOFError, OSError):
                raise FleetError(
                    f"respawned worker {index} (generation {generation}) died "
                    "before reporting its address"
                ) from None
            finally:
                receiver.close()
            reader, writer, hello = await self._connect_one(index, address)
            self._readers[index] = reader
            self._writers[index] = writer
            self.respawn_reports.append(hello)

        async def recover(index: int, reason: str) -> bool:
            """Respawn-and-replay worker ``index``; False = shard degraded."""
            tracer.point(
                "fleet.recover", category="fleet", worker=index, reason=reason
            )
            async with self._send_locks[index]:
                if self._dead[index]:
                    return False
                self._retire_worker(index)
                while True:
                    self._failures[index] += 1
                    self._front_metrics.worker_failures += 1
                    attempt = self._failures[index]
                    if not self.replay or attempt > self.max_respawns:
                        degrade(index)
                        return False
                    await asyncio.sleep(
                        min(RESPAWN_BACKOFF_S * 2 ** (attempt - 1), RESPAWN_BACKOFF_MAX_S)
                    )
                    try:
                        await respawn(index)
                        recovered = len(pending[index])
                        for entry in self._sent_log[index]:
                            await write_frame_async(
                                self._writers[index], frame_for(entry)
                            )
                    except Exception:
                        # The replacement failed to start or died during
                        # replay; that is the slot's next failure.
                        self._retire_worker(index)
                        continue
                    self._front_metrics.replayed += recovered
                    return True

        async def sender(index: int) -> None:
            while True:
                item = await queues[index].get()
                if item is None:
                    return
                async with self._send_locks[index]:
                    if self._dead[index]:
                        continue  # recovery already failed this shard's work
                    self._sent_log[index].append(item)
                    try:
                        await write_frame_async(self._writers[index], frame_for(item))
                    except Exception:
                        # The connection died mid-write.  The entry is in
                        # the log, so reader-driven recovery replays it —
                        # retrying here would deliver it twice.
                        pass

        async def reader(index: int) -> None:
            try:
                while True:
                    expecting = bool(pending[index]) or drain_seq_expected[index] is not None
                    try:
                        if self.request_timeout_s is not None:
                            frame = await asyncio.wait_for(
                                read_frame_async(self._readers[index]),
                                timeout=self.request_timeout_s,
                            )
                        else:
                            frame = await read_frame_async(self._readers[index])
                    except asyncio.TimeoutError:
                        if not expecting:
                            continue  # idle silence is fine; re-arm
                        if await recover(
                            index,
                            f"no frame within {self.request_timeout_s:g}s "
                            f"with {len(pending[index])} outstanding",
                        ):
                            continue
                        return
                    except Exception as exc:
                        if await recover(index, f"{type(exc).__name__}: {exc}"):
                            continue
                        return
                    if frame is None:
                        if await recover(index, "connection closed mid-trace"):
                            continue
                        return
                    kind = frame.get("type")
                    if kind == "error":
                        wire_id = frame.get("request_id")
                        if wire_id is not None:
                            pending[index].discard(int(wire_id))
                            original = current_wire.get(int(wire_id))
                            if original is not None:
                                fail_request(original, "worker-error")
                            continue  # request-scoped: the trace goes on
                        if await recover(index, str(frame.get("error"))):
                            continue
                        return
                    if kind not in ("completed", "drained"):
                        if await recover(index, f"unexpected {kind!r} frame"):
                            continue
                        return
                    record(index, frame.get("responses", []))
                    if kind == "drained":
                        spans = frame.get("spans")
                        if spans:
                            # Worker-side spans ship on the drained frame and
                            # merge into the front-end's single trace (the
                            # worker labelled them with its process name).
                            tracer.ingest(spans)
                        if frame.get("seq") == drain_seq_expected[index]:
                            return
                        # A replayed historical drain's echo — absorb it.
            except Exception as exc:
                failures.append(f"worker {index} reader: {type(exc).__name__}: {exc}")
            finally:
                drained[index].set()

        sender_tasks = [asyncio.ensure_future(sender(i)) for i in range(self.workers)]
        reader_tasks = [asyncio.ensure_future(reader(i)) for i in range(self.workers)]

        for request in ordered:
            target = shards.assign(shard_key(request, self.backend_name))
            # One event-loop pass so the readers can retire responses the
            # workers already produced — pending reflects delivered state.
            await asyncio.sleep(0)
            if self._dead[target]:
                fail_request(request, "shard-degraded")
                continue
            if len(pending[target]) >= self.max_pending:
                shed.append(request)
                self._front_metrics.record_shed()
                continue
            wire_id = self._wire_seq
            self._wire_seq += 1
            current_wire[wire_id] = request
            pending[target].add(wire_id)
            wire_request = replace(request, request_id=wire_id)
            if tracer.enabled:
                # Stamp the correlation id *before* the wire-id rewrite so
                # front-end and worker spans agree on it; untraced frames
                # stay byte-identical to the pre-tracing protocol.
                wire_request = replace(wire_request, trace_id=request.trace_label)
                enqueued_ns[wire_id] = time.monotonic_ns()
            await queues[target].put((_SERVE, wire_request))

        # Drain at the last *global* arrival — exactly the virtual time
        # PerforationServer.run_trace drains at, which is what keeps batch
        # deadline stamps (and therefore outputs) bit-identical.
        last_arrival = ordered[-1].arrival_ms
        for index in range(self.workers):
            if not self._dead[index]:
                self._drain_seq += 1
                drain_seq_expected[index] = self._drain_seq
                await queues[index].put((_DRAIN, (last_arrival, self._drain_seq)))
            await queues[index].put(None)

        await asyncio.gather(*(event.wait() for event in drained))
        for index, result in enumerate(
            await asyncio.gather(*sender_tasks, *reader_tasks, return_exceptions=True)
        ):
            if isinstance(result, BaseException):
                failures.append(f"fleet io task {index}: {result}")
        # Defensive: a reader that returned with work still outstanding
        # (it cannot, short of a worker-side protocol bug) must not cost
        # the caller a response — fail the stragglers explicitly.
        for index in range(self.workers):
            if pending[index]:
                fail_pending(index, "worker-failure")
        if failures:
            raise FleetError("; ".join(failures))

        front = self._front_metrics
        front.finish((front.wall_time_s or 0.0) + (time.perf_counter() - wall_start))
        results = [rejected_response(request) for request in shed]
        results.extend(responses.values())
        results.sort(key=lambda response: response.request_id)
        return results

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def worker_metrics(self) -> list[dict]:
        """Per-worker ``{"metrics": ServeMetrics, "controller": ...}`` snapshots.

        Each ``metrics`` is a view over the registry the worker shipped on
        its ``metrics`` frame (serving metrics plus cache statistics).  A
        degraded (permanently failed) shard cannot report; its entry holds
        the metrics of the responses it delivered before dying, with
        ``"controller": None`` and ``"dead": True``.
        """
        self.start()
        return self._run(self._collect_metrics())

    async def _collect_metrics(self) -> list[dict]:
        snapshots = []
        for index in range(self.workers):
            if self._dead[index]:
                delivered = ServeMetrics().merge(self._shard_metrics[index])  # a copy
                snapshots.append({"metrics": delivered, "controller": None, "dead": True})
                continue
            await write_frame_async(self._writers[index], {"type": "metrics"})
            frame = await asyncio.wait_for(
                read_frame_async(self._readers[index]), timeout=SPAWN_TIMEOUT_S
            )
            if frame is None or frame.get("type") != "metrics":
                raise FleetError(f"worker {index} returned no metrics (got {frame!r})")
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
        """Shut the workers down, close the loop, remove the runtime dir,
        and restore the process environment."""
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
        for proc in self._procs:
            if self._started:
                # A started fleet said shutdown above — give workers a
                # moment to say bye; a partially-started one did not, so
                # waiting would just time out.
                proc.join(timeout=SHUTDOWN_TIMEOUT_S)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=SHUTDOWN_TIMEOUT_S)
        self._procs.clear()
        if self._owns_runtime_dir:
            shutil.rmtree(self.runtime_dir, ignore_errors=True)
        self._restore_env()

    async def _shutdown(self) -> None:
        for index, writer in enumerate(self._writers):
            if index < len(self._dead) and self._dead[index]:
                continue  # already retired by recovery
            try:
                await write_frame_async(writer, {"type": "shutdown"})
                await asyncio.wait_for(
                    read_frame_async(self._readers[index]), timeout=SHUTDOWN_TIMEOUT_S
                )
            except Exception:
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def __enter__(self) -> "PerforationFleet":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("started" if self._started else "new")
        return (
            f"<PerforationFleet workers={self.workers} "
            f"transport={self.transport!r} {state}>"
        )
