"""Fleet worker: one process, one warm-started :class:`PerforationServer`.

A worker is spawned by the front-end with a :class:`WorkerSpec` and one
end of a socket pair, whose other end the front-end keeps.  On that end
it speaks the length-prefixed frame protocol (a JSON header plus raw
array buffers, :mod:`repro.fleet.protocol`).  :func:`serve_connection`
keeps the worker's end of the connection's two array tables: the one it
decodes the front-end's frames with, which keeps each input array the
first time it arrives in a trace so later requests name it by slot, and
the one it encodes its own frames with, which does the same for outputs.
A result-cache hit returns the cache's read-only array, so an output
served again crosses as a ``ref``; the worker never writes an output
after sending it, which is what keying the table by identity needs.
Each table lives for one trace: decoding ``drain`` empties the first,
sending ``drained`` the second, as the front-end's do.  The frames:

``hello``
    Sent once, as soon as the server is built: worker index, pid,
    **generation** (0 for the initial spawn, incremented by every
    front-end respawn), and the warm-start report — which applications'
    ladders the spec shipped, and how many ladders the worker's controller
    calibrated itself (zero for a warm start).
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
worker reports the failure as an ``error`` frame in place of ``hello`` and
exits, so the front-end fails fast with the real cause.  The worker needs
no timeout of its own: the front-end's exit, or its close of its end, is
the worker's end of file, and the worker then exits too.

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
from typing import Mapping, Sequence

from ..api.engine import PerforationEngine
from ..api.calibration import CalibrationEntry
from ..obs import trace as obs_trace
from ..serve.requests import ServeRequest, ServeResponse
from ..serve.server import PerforationServer
from .protocol import (
    ArrayTable,
    ProtocolError,
    error_frame,
    read_frame,
    request_from_wire,
    response_to_wire,
    write_frame,
)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker needs, shipped picklable at spawn time."""

    index: int
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


def serve_connection(
    stream, server: PerforationServer, report: dict, spec: WorkerSpec | None = None
) -> None:
    """The worker's frame loop over one established connection."""
    # This end's array tables: front-end → worker, and worker → front-end.
    received, sent = ArrayTable(), ArrayTable()

    def send(message: dict) -> None:
        write_frame(stream, message, sent)

    def send_completed(responses: list[ServeResponse]) -> None:
        send({"type": "completed", "responses": [response_to_wire(r) for r in responses]})

    send({"type": "hello", **report})
    fail_after = None if spec is None else spec.fail_after
    error_on = () if spec is None else tuple(spec.error_on)
    hang_on = () if spec is None else tuple(spec.hang_on)
    served = 0
    wall_start: float | None = None
    while True:
        frame = read_frame(stream, received)
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
                        # timeout can detect this.  Finite, and far longer
                        # than any response timeout.
                        time.sleep(1200.0)
                    if request_id in error_on:
                        send(error_frame("chaos: injected request failure", request_id))
                        continue
                    try:
                        responses.extend(server.submit(request))
                    except Exception as exc:
                        # Scoped to this request: the rest of the frame is
                        # still served.
                        send(error_frame(f"{type(exc).__name__}: {exc}", request_id))
                        continue
                    served += 1
                    if fail_after is not None and served >= fail_after:
                        # Simulated crash: no cleanup, no goodbye — exactly
                        # what a SIGKILL mid-trace looks like to the
                        # front-end, once the responses held so far are out.
                        send_completed(responses)
                        os._exit(17)
                send_completed(responses)
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
                send(drained)
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
                send(answer)
            elif kind == "shutdown":
                send({"type": "bye"})
                break
            else:
                send(error_frame(f"unknown frame {kind!r}"))
        except ProtocolError:
            raise
        except Exception as exc:  # surface frame-level failures to the front-end
            send(error_frame(f"{type(exc).__name__}: {exc}"))


def worker_main(spec: WorkerSpec, sock: socket.socket) -> None:
    """Process entry point: build the server, then serve frames on ``sock``.

    ``sock`` is the worker's end of the front-end's socket pair.  If
    building the server fails, the worker writes the failure as an
    ``error`` frame in place of ``hello``, so the front-end fails fast with
    the real cause.  The front-end closing its end is this end's EOF, which
    ends the frame loop; there is no timeout.
    """
    with sock, sock.makefile("rwb") as stream:
        try:
            server, report = build_server(spec)
        except Exception as exc:
            write_frame(stream, error_frame(f"startup failed: {type(exc).__name__}: {exc}"))
            return
        serve_connection(stream, server, report, spec)
