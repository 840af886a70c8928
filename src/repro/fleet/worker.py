"""Fleet worker: one process, one warm-started :class:`PerforationServer`.

A worker is spawned by the front-end with a :class:`WorkerSpec`, binds its
listening socket, accepts exactly one connection (the front-end), and then
speaks the length-prefixed JSON protocol (:mod:`repro.fleet.protocol`):

``hello``
    Sent once after accept: worker index, pid, **generation** (0 for the
    initial spawn, incremented by every front-end respawn), and the
    warm-start report — which applications were calibrated eagerly and the
    tuning-database hit/miss/put counters.  A correctly warm-started worker
    reports zero misses and zero puts: every ladder came straight out of
    the replicated :class:`~repro.autotune.db.TuningDB`, no calibration
    sweep ran.
``serve`` → ``completed``
    One request in (virtual arrival time drives the scheduler), the
    responses of every micro-batch that became due back out.
``drain`` → ``drained``
    Flush everything still queued (end of trace) and finalise the metrics
    wall clock.  The front-end tags each drain with a ``seq`` number and
    the worker echoes it, so a front-end replaying history after a respawn
    can tell a historical drain's echo from the current trace's.
``metrics`` → ``metrics``
    The worker's :meth:`ServeMetrics.to_dict` snapshot plus the online
    controller's per-stream state.
``shutdown`` → ``bye``
    Clean exit.
``error``
    Failures are **request-scoped** where possible: an exception while
    serving one request produces an ``error`` frame carrying that
    request's id, and the worker keeps serving.  Frame-level failures
    (undecodable input, a failed drain) produce an ``error`` frame
    without a request id — the front-end treats those as fatal for this
    worker and starts recovery.

If :func:`build_server` itself raises (bad tuning-database path, an
application the registry does not know), the worker still accepts the
front-end's connection and reports the failure as an ``error`` frame in
place of ``hello`` — the front-end fails fast with the real cause instead
of spinning its connect loop until the spawn timeout.

Warm start is what makes fleet scaling honest: the front-end calibrates
each application once into a content-addressed tuning database, and every
worker opens that database **read-only** (no LRU writes, no lock
contention — :class:`repro.api.store.DiskStore` ``readonly`` mode) so a
cold process restores its controller ladders with zero kernel
evaluations.  The codegen artifact cache path is replicated the same way
via ``REPRO_CODEGEN_CACHE``.  Respawned workers warm-start the same way,
which is half of why recovery preserves bit-identity (the other half is
the front-end replaying the worker's exact observation subsequence).

Deterministic fault injection lives in the spec: ``fail_after=N`` makes
the worker hard-exit (``os._exit``, no cleanup — a simulated crash) right
after handling its N-th ``serve`` frame, and ``error_on`` makes it answer
the listed request ids with request-scoped ``error`` frames instead of
serving them.  Both drive the chaos suite in
``tests/fleet/test_recovery.py``.

:func:`build_server` is separate from :func:`worker_main` so tests can
construct the exact worker-side server in process (e.g. to prove the
zero-evaluation property with monkeypatched kernels).
"""

from __future__ import annotations

import math
import os
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..obs import trace as obs_trace
from ..serve.controller import ControllerPolicy
from ..serve.server import PerforationServer
from .protocol import (
    ProtocolError,
    error_frame,
    read_frame,
    request_from_wire,
    response_to_wire,
    write_frame,
)

#: How long a worker waits for the front-end to connect before giving up.
ACCEPT_TIMEOUT_S = 120.0

#: Per-frame socket timeout once connected (a stuck front-end kills the worker).
FRAME_TIMEOUT_S = 600.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker needs, shipped picklable at spawn time."""

    index: int
    #: Unix-socket path (``transport="unix"``) or ``(host, port)`` tuple.
    address: Any
    transport: str = "unix"
    backend: str = "codegen"
    device: str | None = None
    max_batch: int = 8
    max_delay_ms: float = 50.0
    policy: ControllerPolicy | None = None
    #: Application name → representative calibration inputs (replicated to
    #: every worker so tuning-database keys match the front-end's warm-up).
    calibration_inputs: Mapping[str, Any] | None = None
    #: Applications whose controller ladders are built eagerly at startup.
    warm_apps: tuple[str, ...] = ()
    #: Replicated tuning-database directory (``None`` disables warm start).
    tuning_db: str | None = None
    tuning_db_readonly: bool = True
    #: Replicated codegen artifact-cache directory (``REPRO_CODEGEN_CACHE``).
    codegen_cache: str | None = None
    cache_capacity: int = 256
    monitor: bool = True
    strict: bool = True
    #: Record observability spans in-process and ship them back on
    #: ``drained``/``metrics`` frames (set when the front-end traces).
    trace: bool = False
    #: 0 for the initial spawn; each front-end respawn increments it.
    generation: int = 0
    #: Chaos hook: hard-exit (simulated crash) after handling this many
    #: ``serve`` frames; ``None`` disables.
    fail_after: int | None = None
    #: Chaos hook: answer these request ids with request-scoped ``error``
    #: frames instead of serving them.
    error_on: tuple[int, ...] = ()
    #: Chaos hook: hang (sleep) instead of serving these request ids — a
    #: simulated stuck worker, detected only by the front-end's
    #: per-request response timeout.
    hang_on: tuple[int, ...] = ()
    extra_env: Mapping[str, str] = field(default_factory=dict)


def build_server(spec: WorkerSpec) -> tuple[PerforationServer, dict]:
    """Construct the worker's warm-started server and its hello report.

    Importable and callable in process — the cross-process path and the
    tests exercise the same construction.
    """
    if spec.codegen_cache is not None:
        os.environ["REPRO_CODEGEN_CACHE"] = spec.codegen_cache
    for key, value in dict(spec.extra_env).items():
        os.environ[key] = value

    # Workers record spans in memory only and ship them back on
    # ``drained``/``metrics`` frames; the front-end writes the one merged
    # trace file, so a worker never honours ``REPRO_TRACE``'s export path.
    if spec.trace or obs_trace.env_trace_path() is not None:
        obs_trace.install(
            process=f"worker-{spec.index}"
            + (f".g{spec.generation}" if spec.generation else "")
        )

    from ..api.engine import PerforationEngine

    engine = PerforationEngine(device=spec.device, backend=spec.backend)
    tuner = None
    if spec.tuning_db is not None:
        from ..autotune import Tuner, TuningDB

        tuner = Tuner(
            engine, db=TuningDB(spec.tuning_db, readonly=spec.tuning_db_readonly)
        )
    server = PerforationServer(
        engine=engine,
        backend=spec.backend,
        max_batch=spec.max_batch,
        max_delay_ms=spec.max_delay_ms,
        policy=spec.policy,
        calibration_inputs=spec.calibration_inputs,
        tuner=tuner,
        cache_capacity=spec.cache_capacity,
        monitor=spec.monitor,
        strict=spec.strict,
    )
    for app in spec.warm_apps:
        server.controller.ladder(app)
    db_stats = None
    if tuner is not None and tuner.db is not None:
        stats = tuner.db.stats()
        db_stats = {"hits": stats.hits, "misses": stats.misses, "puts": stats.puts}
    report = {
        "worker": spec.index,
        "pid": os.getpid(),
        "generation": spec.generation,
        "backend": server.backend.name,
        "calibrated_apps": list(spec.warm_apps),
        "db": db_stats,
    }
    return server, report


def _bind(spec: WorkerSpec) -> socket.socket:
    if spec.transport == "unix":
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(spec.address))
    elif spec.transport == "tcp":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        host, port = spec.address
        listener.bind((str(host), int(port)))
    else:
        raise ProtocolError(f"unknown transport {spec.transport!r}")
    listener.listen(1)
    return listener


def serve_connection(
    stream, server: PerforationServer, report: dict, spec: WorkerSpec | None = None
) -> None:
    """The worker's frame loop over one established connection."""
    write_frame(stream, {"type": "hello", **report})
    fail_after = None if spec is None else spec.fail_after
    error_on = () if spec is None else tuple(spec.error_on)
    hang_on = () if spec is None else tuple(spec.hang_on)
    served = 0
    wall_start: float | None = None
    while True:
        frame = read_frame(stream)
        if frame is None:
            break  # front-end went away: drain nothing, just exit
        kind = frame.get("type")
        request_id: int | None = None
        try:
            if kind == "serve":
                if wall_start is None:
                    wall_start = time.perf_counter()
                request = request_from_wire(frame["request"])
                request_id = request.request_id
                if request.request_id in hang_on:
                    # Simulated stuck worker: neither a response nor an EOF
                    # ever arrives — only the front-end's response timeout
                    # can detect this.
                    time.sleep(ACCEPT_TIMEOUT_S * 10)
                if request.request_id in error_on:
                    write_frame(
                        stream,
                        error_frame(
                            "chaos: injected request failure",
                            request_id=request.request_id,
                        ),
                    )
                    continue
                responses = server.submit(request)
                write_frame(
                    stream,
                    {
                        "type": "completed",
                        "responses": [response_to_wire(r) for r in responses],
                    },
                )
                served += 1
                if fail_after is not None and served >= fail_after:
                    # Simulated crash: no cleanup, no goodbye — exactly what
                    # a SIGKILL mid-trace looks like to the front-end.
                    os._exit(17)
            elif kind == "drain":
                now_ms = frame.get("now_ms")
                responses = server.drain(math.inf if now_ms is None else float(now_ms))
                elapsed = 0.0 if wall_start is None else time.perf_counter() - wall_start
                server.metrics.finish(elapsed)
                drained: dict = {
                    "type": "drained",
                    "seq": frame.get("seq"),
                    "responses": [response_to_wire(r) for r in responses],
                }
                tracer = obs_trace.get_tracer()
                if tracer.enabled:
                    drained["spans"] = tracer.drain()
                write_frame(stream, drained)
            elif kind == "metrics":
                answer: dict = {
                    "type": "metrics",
                    "metrics": server.metrics.to_dict(),
                    "controller": server.controller.snapshot(),
                    "obs": server.observability().to_dict(),
                }
                tracer = obs_trace.get_tracer()
                if tracer.enabled:
                    answer["spans"] = tracer.drain()
                write_frame(stream, answer)
            elif kind == "shutdown":
                write_frame(stream, {"type": "bye"})
                break
            else:
                write_frame(stream, error_frame(f"unknown frame {kind!r}"))
        except ProtocolError:
            raise
        except Exception as exc:  # surface worker-side failures to the front-end
            # Scoped to the triggering request where one is known, so a
            # single bad request no longer takes the whole trace down.
            write_frame(
                stream,
                error_frame(f"{type(exc).__name__}: {exc}", request_id=request_id),
            )


def worker_main(spec: WorkerSpec, ready=None) -> None:
    """Process entry point: bind, accept the front-end, serve frames.

    ``ready`` is an optional :mod:`multiprocessing` pipe connection; the
    bound address is sent through it right after the listener exists (for
    TCP the kernel-assigned port is only known then), so the front-end can
    start connecting while the worker builds its server.  If building the
    server fails, the worker still accepts the connection and reports the
    failure as an ``error`` frame in place of ``hello``, so the front-end
    fails fast with the real cause.
    """
    listener = _bind(spec)
    try:
        listener.settimeout(ACCEPT_TIMEOUT_S)
        if ready is not None:
            address = listener.getsockname() if spec.transport == "tcp" else str(spec.address)
            try:
                ready.send(address)
            finally:
                ready.close()
        server = None
        startup_error: str | None = None
        try:
            server, report = build_server(spec)
        except Exception as exc:
            startup_error = f"startup failed: {type(exc).__name__}: {exc}"
        conn, _ = listener.accept()
        try:
            conn.settimeout(FRAME_TIMEOUT_S)
            stream = conn.makefile("rwb")
            try:
                if startup_error is not None or server is None:
                    write_frame(stream, error_frame(startup_error or "startup failed"))
                else:
                    serve_connection(stream, server, report, spec)
            finally:
                stream.close()
        finally:
            conn.close()
    finally:
        listener.close()
        if spec.transport == "unix":
            try:
                os.unlink(str(spec.address))
            except OSError:
                pass
