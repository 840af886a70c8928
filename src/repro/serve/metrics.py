"""Serving metrics: throughput, timing percentiles, selections, quality.

:class:`ServeMetrics` is a typed view over one
:class:`~repro.obs.metrics.MetricsRegistry`, which alone stores, serialises
and merges the observations — a fleet worker ships its server's registry
on every ``metrics`` frame, and the front-end merges them.  Distributions
are quantile sketches, so the state stays bounded however many requests
are served.  Two kinds of quantities live here:

* **deterministic** — completed/violation/fallback/cache counts, per-app
  and per-configuration selections, batch sizes and the distribution of
  measured errors: pure functions of the trace, compared by the
  determinism suite (:meth:`ServeMetrics.deterministic_snapshot`);
* **timing** — queue delay in *virtual* trace-ms, service time in *wall*
  ms, and throughput.  The two clocks are never added: a request's wall
  latency is its ``serve.request`` (and ``fleet.request``) span.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from ..obs.metrics import Histogram, MetricsRegistry
from .requests import ServeResponse


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of one timing component (milliseconds on its clock)."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    max_ms: float

    @classmethod
    def from_histogram(cls, histogram: Histogram) -> "LatencySummary":
        if not histogram.count:
            return cls(count=0, mean_ms=math.nan, p50_ms=math.nan, p95_ms=math.nan, max_ms=math.nan)
        return cls(
            count=histogram.count,
            mean_ms=histogram.mean,
            p50_ms=histogram.quantile(0.50),
            p95_ms=histogram.quantile(0.95),
            max_ms=histogram.max,
        )

    def describe(self) -> str:
        if self.count == 0:
            return "n/a"
        return (
            f"mean {self.mean_ms:8.2f}  p50 {self.p50_ms:8.2f}  "
            f"p95 {self.p95_ms:8.2f}  max {self.max_ms:8.2f}"
        )


def _count(name: str, doc: str) -> property:
    """A ``ServeMetrics`` attribute backed by the registry counter ``serve.<name>``."""
    metric = f"serve.{name}"

    def read(self: "ServeMetrics") -> int:
        counter = self.registry.get(metric)
        return 0 if counter is None else counter.value

    def write(self: "ServeMetrics", value: int) -> None:
        self.registry.counter(metric).value = value

    return property(read, write, doc=doc)


class ServeMetrics:
    """Accumulates the server's observable behaviour in :attr:`registry`."""

    completed = _count("completed", "Requests served.")
    violations = _count("violations", "Budget violations, measured before any fallback.")
    fallbacks = _count("fallbacks", "Outputs replaced by the accurate reference.")
    cache_hits = _count("cache_hits", "Requests answered from the result cache.")
    shed = _count("shed", "Requests rejected by admission control (never served).")
    failed = _count("failed", "Requests failed by the fleet (worker loss, worker error).")
    worker_failures = _count("worker_failures", "Fleet worker deaths, respawn attempts included.")
    replayed = _count("replayed", "Outstanding requests recovered by respawn-and-replay.")
    batches = _count("batches", "Micro-batches executed.")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = MetricsRegistry() if registry is None else registry
        #: Metrics the record methods update, looked up in the registry once
        #: each (and, as there, created on first use).
        self._resolved: dict[str, object] = {}

    @classmethod
    def view(cls, registry: MetricsRegistry) -> "ServeMetrics":
        """The serving metrics held in ``registry`` (shared, not copied)."""
        return cls(registry)

    # ------------------------------------------------------------------
    def _metric(self, name: str, kind: str = "counter", help: str = ""):
        metric = self._resolved.get(name)
        if metric is None:
            metric = self._resolved[name] = getattr(self.registry, kind)(name, help)
        return metric

    def _inc(self, name: str) -> None:
        self._metric(f"serve.{name}").inc()

    def record_batch(self, size: int) -> None:
        self._inc("batches")
        self._inc(f"batch_size.{size}")

    def record_response(self, response: ServeResponse, budget: float) -> None:
        metric = self._metric
        metric("serve.completed").inc()
        metric("serve.app." + response.app).inc()
        metric("serve.config." + response.config_label).inc()
        if response.fallback:
            metric("serve.fallbacks").inc()
        if response.cache_hit:
            metric("serve.cache_hits").inc()
        queue = metric("serve.queue_delay_ms", "histogram", "virtual trace-ms, arrival to flush")
        queue.observe(response.queue_delay_ms)
        service = metric("serve.service_time_ms", "histogram", "wall ms running the micro-batch")
        service.observe(response.service_time_ms)
        if response.error is not None:
            errors = metric("serve.error", "histogram", "measured error of the served output")
            errors.observe(response.error)
            worst = metric("serve.worst_budget_fraction", "gauge")
            worst.set(max(worst.value, response.error / budget))

    def record_violation(self) -> None:
        """A pre-fallback budget violation (the served output was replaced)."""
        self._inc("violations")

    def record_shed(self) -> None:
        """A request rejected by admission control (not counted as completed)."""
        self._inc("shed")

    def record_failed(self) -> None:
        """A request failed by the fleet (worker loss or a request-scoped error).

        Failed requests, like shed ones, are never counted as completed;
        the fleet's exact accounting invariant is
        ``completed + shed + failed == len(trace)``.
        """
        self._inc("failed")

    def finish(self, wall_time_s: float) -> None:
        self.registry.gauge("serve.wall_time_s", "wall seconds spent serving").set(wall_time_s)

    # ------------------------------------------------------------------
    def _counts(self, name: str) -> Counter:
        prefix = f"serve.{name}."
        return Counter(
            {m.name[len(prefix) :]: m.value for m in self.registry if m.name.startswith(prefix)}
        )

    def _histogram(self, name: str) -> Histogram:
        return self.registry.get(name) or Histogram(name)

    @property
    def per_app(self) -> Counter[str]:
        return self._counts("app")

    @property
    def per_config(self) -> Counter[str]:
        return self._counts("config")

    @property
    def batch_sizes(self) -> Counter[int]:
        return Counter({int(size): n for size, n in self._counts("batch_size").items()})

    @property
    def worst_budget_fraction(self) -> float:
        """Max over completed requests of measured error / budget (served output)."""
        gauge = self.registry.get("serve.worst_budget_fraction")
        return 0.0 if gauge is None else gauge.value

    @property
    def wall_time_s(self) -> float | None:
        gauge = self.registry.get("serve.wall_time_s")
        return None if gauge is None else gauge.value

    @property
    def throughput_rps(self) -> float:
        if not self.wall_time_s:
            return math.nan
        return self.completed / self.wall_time_s

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return math.nan
        return sum(size * n for size, n in self.batch_sizes.items()) / self.batches

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.completed if self.completed else 0.0

    def queue_delay_summary(self) -> LatencySummary:
        """Queue delay in virtual trace-ms."""
        return LatencySummary.from_histogram(self._histogram("serve.queue_delay_ms"))

    def service_time_summary(self) -> LatencySummary:
        """Service time in wall ms."""
        return LatencySummary.from_histogram(self._histogram("serve.service_time_ms"))

    # ------------------------------------------------------------------
    def merge(self, other: "ServeMetrics") -> "ServeMetrics":
        """Fold ``other`` into this view (in place; returns ``self``).

        Counters and histogram buckets add; worst budget fraction and wall
        time take the maximum (an aggregator with its own wall clock calls
        :meth:`finish` afterwards).
        """
        self.registry.merge(other.registry)
        return self

    def deterministic_snapshot(self) -> dict:
        """The trace-determined portion of the metrics (no wall-clock)."""
        errors = self._histogram("serve.error").to_dict()
        # The float sum is rounded once per process, so a fleet's can differ
        # from a single server's in the last bit; everything else is exact.
        del errors["sum"]
        return {
            "completed": self.completed,
            "violations": self.violations,
            "fallbacks": self.fallbacks,
            "cache_hits": self.cache_hits,
            "shed": self.shed,
            "failed": self.failed,
            "batches": self.batches,
            "per_app": dict(sorted(self.per_app.items())),
            "per_config": dict(sorted(self.per_config.items())),
            "batch_sizes": dict(sorted(self.batch_sizes.items())),
            "errors": errors,
            "worst_budget_fraction": self.worst_budget_fraction,
        }

    def describe(self) -> str:
        lines = [
            f"completed {self.completed} requests in {self.batches} batches "
            f"(mean batch {self.mean_batch_size:.2f})",
        ]
        if self.wall_time_s is not None:
            lines.append(
                f"throughput: {self.throughput_rps:.2f} req/s "
                f"({self.wall_time_s:.2f} s wall)"
            )
        lines.append(f"queue delay (virtual trace-ms): {self.queue_delay_summary().describe()}")
        lines.append(f"service (wall ms):              {self.service_time_summary().describe()}")
        lines.append(
            f"quality: {self.violations} violations, {self.fallbacks} accurate "
            f"fallbacks, worst error/budget {self.worst_budget_fraction:.2f}"
        )
        if self.shed:
            lines.append(f"admission: {self.shed} requests shed (load control)")
        if self.worker_failures or self.replayed or self.failed:
            lines.append(
                f"resilience: {self.worker_failures} worker failures, "
                f"{self.replayed} requests replayed, {self.failed} failed"
            )
        lines.append(f"cache: {self.cache_hits} hits ({self.cache_hit_rate:.1%} of requests)")
        selections = ", ".join(
            f"{label}={count}" for label, count in sorted(self.per_config.items())
        )
        lines.append(f"selections: {selections or 'none'}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ServeMetrics completed={self.completed} batches={self.batches}>"
