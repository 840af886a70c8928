"""The serving loop: scheduler + batched launches + online control.

:class:`PerforationServer` ties the subsystem together.  Requests are
submitted in virtual (trace) time; the server

1. asks the :class:`~repro.serve.controller.OnlineController` for the
   stream's current configuration and enqueues the request under its batch
   key (:class:`~repro.serve.scheduler.MicroBatchScheduler`);
2. flushes due micro-batches and executes each as **one** batched
   codegen launch
   (:meth:`~repro.api.engine.PerforationEngine.run_compiled_batch`),
   short-circuiting requests whose result is in the LRU cache;
3. measures the quality of every served output against the memoized
   accurate reference (``monitor=True``), feeds the errors back into the
   controller, and — in ``strict`` mode — replaces any output that violates
   its request's budget with the accurate reference, so every *completed*
   request honours its error budget;
4. records everything in :class:`~repro.serve.metrics.ServeMetrics`.

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

from ..api.engine import PerforationEngine
from ..clsim.backends import ExecutionBackend, resolve_backend
from ..core.quality import compute_error
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from .cache import ServeResultCache
from .controller import ControllerPolicy, OnlineController
from .metrics import ServeMetrics
from .requests import ServeRequest, ServeResponse
from .scheduler import MicroBatch, MicroBatchScheduler


class PerforationServer:
    """Quality-aware batch server over one :class:`PerforationEngine`.

    Parameters
    ----------
    engine:
        Engine to serve with (``None`` builds one for ``backend``).
    backend:
        Execution backend for the compiled launches; the default codegen
        backend executes each micro-batch as one stacked launch.
    max_batch / max_delay_ms:
        Micro-batching knobs (see :class:`MicroBatchScheduler`).
    policy / calibration_inputs / tuner:
        Controller knobs (see :class:`OnlineController`); ``tuner`` seeds
        the controller's ladders from a persistent tuning database, so a
        server restart skips per-process calibration entirely.
    cache_capacity:
        LRU capacity of the result cache; ``0`` disables caching.
    monitor:
        Measure every served output against the accurate reference and
        feed the controller.  Without monitoring the controller never
        adapts and budgets are not enforced.
    strict:
        With monitoring, replace budget-violating outputs with the
        accurate reference before completing the request.
    """

    def __init__(
        self,
        engine: PerforationEngine | None = None,
        backend: ExecutionBackend | str | None = "codegen",
        *,
        max_batch: int = 8,
        max_delay_ms: float = 50.0,
        policy: ControllerPolicy | None = None,
        calibration_inputs: Mapping[str, Sequence] | None = None,
        tuner=None,
        cache_capacity: int = 256,
        monitor: bool = True,
        strict: bool = True,
    ) -> None:
        self.backend = resolve_backend(backend)
        self.engine = engine if engine is not None else PerforationEngine(backend=self.backend)
        self.scheduler = MicroBatchScheduler(max_batch=max_batch, max_delay_ms=max_delay_ms)
        self.controller = OnlineController(
            self.engine, policy=policy, calibration_inputs=calibration_inputs, tuner=tuner
        )
        self.cache = ServeResultCache(cache_capacity) if cache_capacity else None
        self.metrics = ServeMetrics()
        self.monitor = monitor
        self.strict = strict
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
        self.scheduler.submit(
            request, config, self.backend.name, app.global_size(request.inputs)
        )
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
            misses: list[ServeRequest] = []
            first_miss: dict[object, int] = {}
            duplicate_of: dict[int, int] = {}
            for request in batch.requests:
                key = (
                    self.cache.key(app.name, config.label, request.inputs)
                    if self.cache is not None
                    else None
                )
                keys[request.request_id] = key
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
                arrays = self.engine.run_compiled_batch(
                    app, [r.inputs for r in misses], config, backend=self.backend
                )
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
                        batch, app, request, cached, outputs, keys, service_ms, batch_id
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

        within = True
        fallback = False
        if self.monitor:
            if error is None:
                reference = self.engine.reference(app, request.inputs)
                error = compute_error(reference, output, app.error_metric)
            # The controller sees the *measured* quality of the approximate
            # output, so a violation tightens the stream even when strict
            # mode masks it from the caller.
            self.controller.observe(app.name, request.error_budget, error)
            if not cache_hit and self.cache is not None:
                self.cache.put(keys[request.request_id], output, error)
            within = error <= request.error_budget
            if not within and self.strict:
                self.metrics.record_violation()
                reference = self.engine.reference(app, request.inputs)
                output = np.array(reference)  # caller owns the response output
                error = 0.0
                within = True
                fallback = True
        elif not cache_hit and self.cache is not None:
            self.cache.put(keys[request.request_id], output, error)

        response = ServeResponse(
            request_id=request.request_id,
            app=app.name,
            config_label=config.label,
            output=output,
            error=error,
            within_budget=within,
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

        Absorbs the serve counters, the result caches (serve LRU and engine
        memoization), the process-wide codegen artifact cache, the tuning
        database (when the controller is tuner-backed), and the controller's
        tighten/loosen decisions — the scattered stat structs in one shape.
        """
        registry = obs_metrics.MetricsRegistry()
        m = self.metrics
        for name, value in (
            ("serve.completed", m.completed),
            ("serve.violations", m.violations),
            ("serve.fallbacks", m.fallbacks),
            ("serve.cache_hits", m.cache_hits),
            ("serve.shed", m.shed),
            ("serve.failed", m.failed),
            ("serve.worker_failures", m.worker_failures),
            ("serve.replayed", m.replayed),
            ("serve.batches", m.batches),
        ):
            registry.counter(name).inc(value)
        registry.gauge("serve.worst_budget_fraction").set(m.worst_budget_fraction)
        latency = registry.histogram("serve.latency_ms")
        for value in m.latencies_ms:
            latency.observe(value)
        queue = registry.histogram("serve.queue_delay_ms")
        for value in m.queue_delays_ms:
            queue.observe(value)

        if self.cache is not None:
            registry.absorb_cache("serve.result_cache", self.cache.stats)
        registry.absorb_cache("engine.result_cache", self.engine.cache_stats)
        from ..api.artifacts import default_cache

        artifact_cache = default_cache()
        if artifact_cache is not None:
            registry.absorb_cache("codegen.artifact_cache", artifact_cache.stats)
        tuner = self.controller.tuner
        if tuner is not None and getattr(tuner, "db", None) is not None:
            registry.absorb_cache("autotune.tuning_db", tuner.db.stats())
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
