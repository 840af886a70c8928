"""Request/response value types of the serving subsystem.

A :class:`ServeRequest` is one unit of work submitted to the
:class:`~repro.serve.server.PerforationServer`: an application name, the
input, and the request's *quality contract* — the error budget the served
output must honour — plus scheduling hints (priority, latency budget).
Arrival times are virtual (trace time in milliseconds): the scheduler and
its determinism guarantees operate on trace time, while service times are
measured wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.errors import ConfigurationError


@dataclass(frozen=True)
class ServeRequest:
    """One serving request.

    Parameters
    ----------
    request_id:
        Caller-chosen identifier; ties responses back to requests and
        breaks ordering ties deterministically.
    app:
        Registered application name (``"gaussian"``, ``"sobel3"``, ...).
    inputs:
        Application input (image array, :class:`~repro.data.hotspot.HotspotInput`, ...).
    error_budget:
        Maximum acceptable error of the served output (same metric as the
        application's evaluation metric).
    arrival_ms:
        Virtual arrival time in milliseconds of trace time.
    latency_budget_ms:
        Upper bound on how long the request may wait in a batch before it
        must be flushed; ``None`` defers to the scheduler's default delay.
    priority:
        Higher priorities are placed first within a micro-batch and flush
        earlier when a batch overflows.
    trace_id:
        Correlation id for observability spans (see :mod:`repro.obs`).
        Strictly out-of-band: it never influences scheduling, batching or
        execution.  The fleet front-end stamps one before the wire-id
        rewrite so worker-side spans can be merged back per request.
    """

    request_id: int
    app: str
    inputs: Any
    error_budget: float
    arrival_ms: float = 0.0
    latency_budget_ms: float | None = None
    priority: int = 0
    trace_id: str | None = None

    def __post_init__(self) -> None:
        if self.error_budget <= 0:
            raise ConfigurationError(
                f"request {self.request_id}: error budget must be positive, "
                f"got {self.error_budget}"
            )
        if self.latency_budget_ms is not None and self.latency_budget_ms < 0:
            raise ConfigurationError(
                f"request {self.request_id}: latency budget must be non-negative"
            )

    def sort_key(self) -> tuple:
        """Deterministic in-batch ordering: priority first, then FIFO."""
        return (-self.priority, self.arrival_ms, self.request_id)

    @property
    def trace_label(self) -> str:
        """The effective trace id: explicit, or derived from the request id."""
        return self.trace_id if self.trace_id is not None else f"r{self.request_id}"


@dataclass
class ServeResponse:
    """Outcome of one completed (or rejected) request."""

    request_id: int
    app: str
    #: Label of the configuration the batch ran with (``"Rows1:NN"``, ...);
    #: empty for rejected requests, which never ran.
    config_label: str
    #: Served output; ``None`` for rejected requests.
    output: np.ndarray | None
    #: Measured error of the *served* output (``None`` for rejected requests).
    error: float | None
    #: True when the request never executed and carries no output: either
    #: load-shed by admission control or failed by the fleet (worker loss,
    #: request-scoped worker error) — ``metadata["reason"]`` says which.
    rejected: bool = False
    #: True when the approximate output violated the budget and the server
    #: substituted the accurate output.
    fallback: bool = False
    #: True when the output came from the serve result cache.
    cache_hit: bool = False
    #: Number of requests in the micro-batch this request ran in.
    batch_size: int = 1
    #: Virtual time spent queued before the batch was flushed.
    queue_delay_ms: float = 0.0
    #: Wall-clock execution time of the micro-batch (shared by its requests).
    service_time_ms: float = 0.0
    #: Virtual time at which the batch was flushed.
    completed_ms: float = 0.0
    metadata: dict = field(default_factory=dict)
