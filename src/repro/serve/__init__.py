"""``repro.serve`` — quality-aware batch serving of perforated kernels.

The serving subsystem turns the per-call session API into a service: a
stream of :class:`~repro.serve.requests.ServeRequest` objects (application,
input, error budget, priority, latency budget) is micro-batched by a
deterministic :class:`~repro.serve.scheduler.MicroBatchScheduler`, executed
as single batched codegen launches
(:meth:`~repro.api.engine.PerforationEngine.run_compiled_batch`), and
steered by an :class:`~repro.serve.controller.OnlineController` that starts
from :meth:`Session.calibrate <repro.api.session.Session.calibrate>`
calibration and adapts the perforation configuration per application from
monitored quality feedback — tightening when the measured error drifts
above budget, loosening when there is headroom.  A bounded LRU result
cache (:mod:`repro.serve.cache`) short-circuits repeated inputs, and
:class:`~repro.serve.metrics.ServeMetrics` tracks throughput, latency
percentiles, cache hit rate and per-scheme selection counts.

.. code-block:: python

    from repro.serve import PerforationServer, ServeRequest

    server = PerforationServer(backend="codegen", max_batch=8)
    responses = server.run_trace([
        ServeRequest(0, "gaussian", image_a, error_budget=0.025),
        ServeRequest(1, "gaussian", image_b, error_budget=0.025, arrival_ms=3.0),
        ServeRequest(2, "sobel3", image_a, error_budget=0.01, arrival_ms=5.0),
    ])
    print(server.metrics.describe())

The synthetic load generator (:mod:`repro.serve.loadgen`) and the
``python -m repro.experiments serve-bench`` harness exercise the subsystem
under mixed multi-application traffic; see ``docs/serving.md``.
"""

from .cache import ServeCacheStats, ServeResultCache
from .controller import ControllerPolicy, OnlineController
from .loadgen import ARRIVAL_PROCESSES, DEFAULT_SERVE_APPS, TraceSpec, generate_trace
from .metrics import LatencySummary, ServeMetrics
from .requests import ServeRequest, ServeResponse
from .scheduler import MicroBatch, MicroBatchScheduler
from .server import PerforationServer

__all__ = [
    "ARRIVAL_PROCESSES",
    "ControllerPolicy",
    "DEFAULT_SERVE_APPS",
    "LatencySummary",
    "MicroBatch",
    "MicroBatchScheduler",
    "OnlineController",
    "PerforationServer",
    "ServeCacheStats",
    "ServeMetrics",
    "ServeRequest",
    "ServeResponse",
    "ServeResultCache",
    "TraceSpec",
    "generate_trace",
]
