"""The serving loop: scheduler + batched launches + online control.

:class:`PerforationServer` ties the subsystem together.  Requests are
submitted in virtual (trace) time; the server

1. asks the :class:`~repro.serve.controller.OnlineController` for the
   stream's current configuration and enqueues the request under its batch
   key (:class:`~repro.serve.scheduler.MicroBatchScheduler`);
2. flushes due micro-batches and executes each as **one** batched
   codegen launch
   (:meth:`~repro.api.engine.PerforationEngine.run_compiled_batch`),
   short-circuiting requests whose result is in the LRU cache (keyed by
   the configuration's full identity, :attr:`ApproximationConfig.key
   <repro.core.config.ApproximationConfig.key>`, not its figure label);
3. measures the quality of every served output against the memoized
   accurate reference, feeds the errors back into the controller, and
   replaces any output that violates its request's budget with the
   accurate reference, so every *completed* request honours its error
   budget;
4. records everything in :class:`~repro.serve.metrics.ServeMetrics`.

This is the library's one quality-monitored runtime:
:mod:`repro.api.calibration` only calibrates and selects.

The server is synchronous and single-threaded by design: batching, not
concurrency, is the throughput mechanism (worker-level parallelism lives in
the engine), and a deterministic loop is what makes the scheduler/controller
replay tests possible.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..api.cache import input_token
from ..api.engine import PerforationEngine
from ..core.perforator import build_kernel
from ..core.quality import compute_error
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from .cache import ServeResultCache
from .controller import OnlineController
from .metrics import ServeMetrics
from .requests import ServeRequest, ServeResponse
from .scheduler import MicroBatch, MicroBatchScheduler


class PerforationServer:
    """Quality-aware batch server over one :class:`PerforationEngine`.

    Parameters
    ----------
    engine:
        Engine to serve with; its backend runs every launch.  ``None``
        builds one on the codegen backend, which executes each micro-batch
        as one stacked launch.
    max_batch / max_delay_ms:
        Micro-batching knobs (see :class:`MicroBatchScheduler`).
    calibration_inputs:
        Application name → representative inputs the controller calibrates
        on (see :class:`OnlineController`).
    cache_capacity:
        LRU capacity of the result cache; ``0`` disables caching.
    """

    def __init__(
        self,
        engine: PerforationEngine | None = None,
        *,
        max_batch: int = 8,
        max_delay_ms: float = 50.0,
        calibration_inputs: Mapping[str, Sequence] | None = None,
        cache_capacity: int = 256,
    ) -> None:
        self.engine = engine if engine is not None else PerforationEngine(backend="codegen")
        #: The engine's backend: the server launches on nothing else.
        self.backend = self.engine.backend
        self.scheduler = MicroBatchScheduler(max_batch=max_batch, max_delay_ms=max_delay_ms)
        self.controller = OnlineController(self.engine, calibration_inputs)
        self.cache = ServeResultCache(cache_capacity) if cache_capacity else None
        self.metrics = ServeMetrics()
        self._batch_seq = 0
        self._arrived_wall_ns: dict[int, int] = {}
        obs_metrics.register_collector(self.observability)

    # ------------------------------------------------------------------
    # Submission (virtual-time driven)
    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest, now_ms: float | None = None) -> list[ServeResponse]:
        """Submit one request at virtual time ``now_ms`` (its arrival time).

        Returns the responses of every micro-batch that became due at or
        before ``now_ms`` — batches whose deadline passed before this
        arrival, plus any batch the submission filled up.
        """
        if get_tracer().enabled:
            self._arrived_wall_ns[request.request_id] = time.monotonic_ns()
        now = request.arrival_ms if now_ms is None else now_ms
        completed = self.poll(now)
        config = self.controller.choose(request.app, request.error_budget)
        app = self.engine.resolve_app(request.app)
        self.scheduler.submit(request, config, app.global_size(request.inputs))
        completed.extend(self.poll(now))
        return completed

    def poll(self, now_ms: float) -> list[ServeResponse]:
        """Flush and execute every micro-batch due at virtual time ``now_ms``."""
        responses: list[ServeResponse] = []
        for batch in self.scheduler.ready(now_ms):
            responses.extend(self._execute(batch))
        return responses

    def drain(self, now_ms: float = math.inf) -> list[ServeResponse]:
        """Flush everything still queued (end of trace)."""
        responses: list[ServeResponse] = []
        for batch in self.scheduler.flush(now_ms):
            responses.extend(self._execute(batch))
        return responses

    def run_trace(self, requests: Iterable[ServeRequest]) -> list[ServeResponse]:
        """Serve a whole trace in arrival order and finalise the metrics.

        Arrival times drive the virtual clock; the wall clock only measures
        how fast the server processed the trace (throughput, service times).
        """
        trace = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
        wall_start = time.perf_counter()
        responses: list[ServeResponse] = []
        for request in trace:
            responses.extend(self.submit(request))
        if trace:
            responses.extend(self.drain(now_ms=trace[-1].arrival_ms))
        self.metrics.finish(time.perf_counter() - wall_start)
        return responses

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _execute(self, batch: MicroBatch) -> list[ServeResponse]:
        app = self.engine.resolve_app(batch.app)
        config = batch.config
        self.metrics.record_batch(len(batch))
        self._batch_seq += 1
        batch_id = self._batch_seq

        with get_tracer().span(
            "serve.batch",
            category="serve",
            app=app.name,
            config=config.label,
            batch_id=batch_id,
            size=len(batch),
        ) as span:
            wall_start = time.perf_counter()
            cached: dict[int, tuple[np.ndarray, float | None]] = {}
            keys: dict[int, object] = {}
            #: Each input's fingerprint, digested once for the cache key and
            #: every reference lookup.
            tokens: dict[int, object] = {}
            misses: list[ServeRequest] = []
            first_miss: dict[object, int] = {}
            duplicate_of: dict[int, int] = {}
            for request in batch.requests:
                if self.cache is not None:
                    key = self.cache.key(app.name, config.key, request.inputs)
                    token = None if key is None else key[-1]
                else:
                    key, token = None, input_token(request.inputs)
                keys[request.request_id] = key
                tokens[request.request_id] = token
                hit = self.cache.get(key) if self.cache is not None else None
                if hit is not None:
                    cached[request.request_id] = hit
                elif key is not None and key in first_miss:
                    # Identical input in the same micro-batch: execute once,
                    # fan the output out to the duplicates.
                    duplicate_of[request.request_id] = first_miss[key]
                else:
                    if key is not None:
                        first_miss[key] = request.request_id
                    misses.append(request)

            outputs: dict[int, np.ndarray] = {}
            if misses:
                # The batched fast path: one perforated kernel, one stacked
                # launch for every distinct cache miss of the micro-batch.
                arrays = self.engine.run_compiled_batch(app, [r.inputs for r in misses], config)
                for request, array in zip(misses, arrays):
                    outputs[request.request_id] = array
            for duplicate, original in duplicate_of.items():
                # Copy: each response's output belongs to its own caller.
                outputs[duplicate] = np.array(outputs[original])
            service_ms = (time.perf_counter() - wall_start) * 1000.0
            span.set(cache_hits=len(cached), launched=len(misses))

            responses = []
            for request in batch.requests:
                responses.append(
                    self._complete(
                        batch, app, request, cached, outputs, keys, tokens, service_ms, batch_id
                    )
                )
        return responses

    def _complete(
        self,
        batch: MicroBatch,
        app,
        request: ServeRequest,
        cached: dict,
        outputs: dict,
        keys: dict,
        tokens: dict,
        service_ms: float,
        batch_id: int = 0,
    ) -> ServeResponse:
        config = batch.config
        cache_hit = request.request_id in cached
        if cache_hit:
            output, error = cached[request.request_id]
        else:
            output = outputs[request.request_id]
            error = None

        token = tokens[request.request_id]
        if error is None:
            reference = self.engine.reference(app, request.inputs, _token=token)
            error = compute_error(reference, output, app.error_metric)
        # The controller sees the *measured* quality of the approximate
        # output, so a violation tightens the stream even though the
        # fallback below masks it from the caller.
        self.controller.observe(app.name, request.error_budget, error)
        if not cache_hit and self.cache is not None:
            self.cache.put(keys[request.request_id], output, error)
        fallback = error > request.error_budget
        if fallback:
            self.metrics.record_violation()
            reference = self.engine.reference(app, request.inputs, _token=token)
            output = np.array(reference)  # caller owns the response output
            error = 0.0

        response = ServeResponse(
            request_id=request.request_id,
            app=app.name,
            config_label=config.label,
            output=output,
            error=error,
            fallback=fallback,
            cache_hit=cache_hit,
            batch_size=len(batch),
            queue_delay_ms=max(0.0, batch.formed_ms - request.arrival_ms),
            service_time_ms=service_ms,
            completed_ms=batch.formed_ms,
        )
        self.metrics.record_response(response, request.error_budget)
        tracer = get_tracer()
        if tracer.enabled:
            end_ns = time.monotonic_ns()
            start_ns = self._arrived_wall_ns.pop(request.request_id, end_ns)
            tracer.record(
                "serve.request",
                category="serve",
                start_ns=start_ns,
                duration_ns=end_ns - start_ns,
                trace_id=request.trace_label,
                app=app.name,
                config=config.label,
                batch_id=batch_id,
                batch_size=len(batch),
                cache_hit=cache_hit,
                fallback=fallback,
                queue_delay_ms=response.queue_delay_ms,
                service_ms=service_ms,
            )
        return response

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def observability(self) -> obs_metrics.MetricsRegistry:
        """One mergeable registry over every layer this server touches.

        Starts from the serving metrics' own registry and absorbs every
        cache's :class:`~repro.api.cache.StoreStats` (the serve result
        cache and the engine's reference and timing stores), the
        kernel-build cache's ``cache_info()``, and the controller's
        tighten/loosen decisions.
        """
        # A copy, so absorbing the cache statistics below never accumulates
        # into the server's own metrics from one call to the next.
        registry = obs_metrics.MetricsRegistry().merge(self.metrics.registry)
        if self.cache is not None:
            registry.absorb_cache("serve.result_cache", self.cache.stats)
        registry.absorb_cache("engine.reference_cache", self.engine.references.stats)
        registry.absorb_cache("engine.timing_cache", self.engine.timings.stats)
        registry.absorb_cache("kernel.build_cache", build_kernel.cache_info())
        for stream in self.controller.snapshot().values():
            registry.counter("controller.switches").inc(stream["switches"])
            registry.counter("controller.tightened").inc(stream["tightened"])
            registry.counter("controller.loosened").inc(stream["loosened"])
        return registry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PerforationServer backend={self.backend.name!r} "
            f"max_batch={self.scheduler.max_batch} completed={self.metrics.completed}>"
        )
