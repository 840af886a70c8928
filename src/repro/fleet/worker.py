"""Fleet worker: one process, one warm-started :class:`PerforationServer`.

A worker is spawned by the front-end with a :class:`WorkerSpec`, binds its
listening socket, accepts exactly one connection (the front-end), and then
speaks the length-prefixed frame protocol (a JSON header plus raw array
buffers, :mod:`repro.fleet.protocol`):

``hello``
    Sent once after accept: worker index, pid, **generation** (0 for the
    initial spawn, incremented by every front-end respawn), and the
    warm-start report — which applications' ladders the spec shipped, and
    how many ladders the worker's controller calibrated itself (zero for a
    warm start).
``serve`` → ``completed``
    A list of requests in, submitted in order (virtual arrival times drive
    the scheduler), and one frame back out with the list of responses of
    every micro-batch that became due while serving them.
``drain`` → ``drained``
    Flush everything still queued (end of trace) and finalise the metrics
    wall clock.  The front-end tags each drain with a ``seq`` number and
    the worker echoes it, so a front-end replaying history after a respawn
    can tell a historical drain's echo from the current trace's.
``metrics`` → ``metrics``
    The worker's metrics registry
    (:meth:`PerforationServer.observability`: the serving metrics plus
    every cache's statistics) plus the online controller's per-stream
    state and its count of self-calibrated ladders.
``shutdown`` → ``bye``
    Clean exit.
``error``
    Failures are **request-scoped** where possible: an exception while
    serving one request produces an ``error`` frame carrying that
    request's id, and the worker serves the rest of the frame and keeps
    going.  Frame-level failures (a failed drain, responses that cannot
    be encoded) produce an ``error`` frame without a request id — the
    front-end treats those as fatal for this worker and starts recovery.
    A frame that does not decode, or a ``serve`` frame with a malformed
    request entry, raises :class:`ProtocolError` before any of its
    requests is served, and the worker exits.

If :func:`build_server` itself raises (say, for an unknown device), the
worker still accepts the front-end's connection and reports the
failure as an ``error`` frame in place of ``hello`` — the front-end fails
fast with the real cause instead of spinning its connect loop until the
spawn timeout.

Warm start is what makes fleet scaling honest: the front-end calibrates
each application once, and the spec ships the resulting *ladders* — the
calibrated configurations, fastest first, ending in the accurate one.
:func:`build_server` seeds the controller with them, so a cold process
serves with zero kernel evaluations spent on calibration, and its ladders
hold the very floats the front-end computed.  Respawned workers
warm-start from the same spec, which is half of why recovery preserves
bit-identity (the other half is the front-end replaying the worker's
exact observation subsequence).  Workers share no kernel cache and no
directory: each builds the kernels it serves once, in its own process.

Deterministic fault injection lives in the spec: ``fail_after=N`` makes
the worker hard-exit (``os._exit``, no cleanup — a simulated crash) right
after it served its N-th request, wherever that request sits in its
frame, once it has written the responses it holds; ``error_on`` and
``hang_on`` answer or wedge on the listed request ids, one request at a
time.  They drive the chaos suite in ``tests/fleet/test_recovery.py``.

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
from typing import Any, Mapping, Sequence

from ..api.engine import PerforationEngine
from ..api.calibration import CalibrationEntry
from ..obs import trace as obs_trace
from ..serve.requests import ServeRequest, ServeResponse
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
    #: Application name → the ladder the front-end calibrated for it.  An
    #: application without one is calibrated lazily, on its default input.
    ladders: Mapping[str, Sequence[CalibrationEntry]] = field(default_factory=dict)
    cache_capacity: int = 256
    #: Record observability spans in-process and ship them back on
    #: ``drained``/``metrics`` frames (set when the front-end traces).
    trace: bool = False
    #: 0 for the initial spawn; each front-end respawn increments it.
    generation: int = 0
    #: Chaos hook: hard-exit (simulated crash) after serving this many
    #: requests; ``None`` disables.
    fail_after: int | None = None
    #: Chaos hook: answer these request ids with request-scoped ``error``
    #: frames instead of serving them.
    error_on: tuple[int, ...] = ()
    #: Chaos hook: hang (sleep) instead of serving these request ids — a
    #: simulated stuck worker, detected only by the front-end's
    #: per-request response timeout.
    hang_on: tuple[int, ...] = ()


def build_server(spec: WorkerSpec) -> tuple[PerforationServer, dict]:
    """Construct the worker's warm-started server and its hello report.

    Importable and callable in process — the cross-process path and the
    tests exercise the same construction.
    """
    # Workers record spans in memory only and ship them back on
    # ``drained``/``metrics`` frames; the front-end writes the one merged
    # trace file, so a worker never honours ``REPRO_TRACE``'s export path.
    if spec.trace or obs_trace.env_trace_path() is not None:
        obs_trace.install(
            process=f"worker-{spec.index}"
            + (f".g{spec.generation}" if spec.generation else "")
        )

    server = PerforationServer(
        engine=PerforationEngine(device=spec.device, backend=spec.backend),
        max_batch=spec.max_batch,
        max_delay_ms=spec.max_delay_ms,
        cache_capacity=spec.cache_capacity,
    )
    for app, ladder in spec.ladders.items():
        # Resolved now, as a calibrating controller would: the application
        # is imported and built before hello, not on the first request.
        server.engine.resolve_app(app)
        server.controller.ladders[app] = list(ladder)
    report = {
        "worker": spec.index,
        "pid": os.getpid(),
        "generation": spec.generation,
        "backend": server.backend.name,
        "ladders": sorted(spec.ladders),
        "calibrated": server.controller.calibrated,
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


def _frame_requests(frame: dict) -> list[ServeRequest]:
    """Decode every request of a ``serve`` frame before any is served.

    A malformed entry raises :class:`ProtocolError`, so it fails the
    whole frame rather than the requests behind it.
    """
    entries = frame.get("requests")
    if not isinstance(entries, list):
        raise ProtocolError(f"serve frame carries no request list (got {entries!r})")
    try:
        return [request_from_wire(entry) for entry in entries]
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed request entry: {type(exc).__name__}: {exc}") from None


def _write_completed(stream, responses: list[ServeResponse]) -> None:
    write_frame(
        stream, {"type": "completed", "responses": [response_to_wire(r) for r in responses]}
    )


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
        try:
            if kind == "serve":
                if wall_start is None:
                    wall_start = time.perf_counter()
                responses: list[ServeResponse] = []
                for request in _frame_requests(frame):
                    request_id = request.request_id
                    if request_id in hang_on:
                        # Simulated stuck worker: neither a response nor an
                        # EOF ever arrives — only the front-end's response
                        # timeout can detect this.
                        time.sleep(ACCEPT_TIMEOUT_S * 10)
                    if request_id in error_on:
                        failure = error_frame("chaos: injected request failure", request_id)
                        write_frame(stream, failure)
                        continue
                    try:
                        responses.extend(server.submit(request))
                    except Exception as exc:
                        # Scoped to this request: the rest of the frame is
                        # still served.
                        failure = error_frame(f"{type(exc).__name__}: {exc}", request_id)
                        write_frame(stream, failure)
                        continue
                    served += 1
                    if fail_after is not None and served >= fail_after:
                        # Simulated crash: no cleanup, no goodbye — exactly
                        # what a SIGKILL mid-trace looks like to the
                        # front-end, once the responses held so far are out.
                        _write_completed(stream, responses)
                        os._exit(17)
                _write_completed(stream, responses)
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
                    "metrics": server.observability().to_dict(),
                    "controller": {
                        "streams": server.controller.snapshot(),
                        "calibrated": server.controller.calibrated,
                    },
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
        except Exception as exc:  # surface frame-level failures to the front-end
            write_frame(stream, error_frame(f"{type(exc).__name__}: {exc}"))


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
