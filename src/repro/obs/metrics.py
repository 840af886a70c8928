"""Typed metrics registry: counters, gauges, histograms.

Mirrors the merge/``to_dict``/``from_dict`` semantics of
``repro.serve.metrics.ServeMetrics`` so registries from fleet workers can be
shipped over the wire and folded into the front-end's view:

* counters and histogram counts/sums **add** on merge,
* gauges take the **maximum** (concurrent processes have no shared ordering,
  and every gauge we export — buffer sizes, worst fractions — is a
  high-water mark),
* histograms also fold ``min``/``max``.

:func:`cache_snapshot` is the one canonical shape for cache statistics; the
three historic stat structs (``StoreStats``, ``ServeCacheStats``,
``CacheStats``) all expose ``snapshot()`` by delegating here, and the
``hit_rate`` ratio is guarded against empty caches.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Any, Callable, Iterator

__all__ = [
    "ENV_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "cache_snapshot",
    "default_registry",
    "register_collector",
    "exposition",
]

ENV_METRICS = "REPRO_METRICS"

_DISABLED_VALUES = {"", "0", "off", "none", "disable", "disabled"}


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.kind, "help": self.help, "value": self.value}

    def load(self, data: dict[str, Any]) -> None:
        self.value = data.get("value", 0)


class Gauge:
    """Point-in-time value; merge keeps the maximum across processes."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.kind, "help": self.help, "value": self.value}

    def load(self, data: dict[str, Any]) -> None:
        self.value = data.get("value", 0.0)


class Histogram:
    """Aggregate distribution: count / sum / min / max.

    Deliberately reservoir-free — exact percentiles live in ``ServeMetrics``
    where the full latency lists are needed for reports; the registry keeps
    bounded state so it can be shipped on every ``metrics`` frame.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "count", "sum", "min", "max")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "type": self.kind,
            "help": self.help,
            "count": self.count,
            "sum": self.sum,
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        return out

    def load(self, data: dict[str, Any]) -> None:
        self.count = data.get("count", 0)
        self.sum = data.get("sum", 0.0)
        self.min = data.get("min", float("inf"))
        self.max = data.get("max", float("-inf"))


_KINDS: dict[str, type] = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create store of named metrics with mergeable snapshots."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, help)

    def _get_or_create(self, name: str, kind: type, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, help)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, requested {kind.kind}"
            )
        return metric

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        for name in self.names():
            yield self._metrics[name]

    def absorb_cache(self, prefix: str, stats: Any) -> None:
        """Fold any cache-stat struct into ``{prefix}.hits`` etc. counters."""
        snap = cache_snapshot(stats)
        for key in ("hits", "misses", "evictions", "puts", "errors"):
            self.counter(f"{prefix}.{key}").inc(snap[key])
        self.gauge(f"{prefix}.hit_rate").set(snap["hit_rate"])

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        for name, metric in other._metrics.items():
            mine = self._get_or_create(name, type(metric), metric.help)
            mine.merge(metric)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {name: self._metrics[name].to_dict() for name in self.names()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MetricsRegistry":
        registry = cls()
        for name, payload in data.items():
            kind = _KINDS.get(payload.get("type", "counter"))
            if kind is None:
                raise ValueError(f"unknown metric type {payload.get('type')!r} for {name!r}")
            metric = registry._get_or_create(name, kind, payload.get("help", ""))
            metric.load(payload)
        return registry

    def snapshot(self) -> dict[str, Any]:
        """Flat deterministic view: metric name -> value (histograms expanded)."""
        out: dict[str, Any] = {}
        for metric in self:
            if isinstance(metric, Histogram):
                out[f"{metric.name}.count"] = metric.count
                out[f"{metric.name}.sum"] = metric.sum
                if metric.count:
                    out[f"{metric.name}.min"] = metric.min
                    out[f"{metric.name}.max"] = metric.max
            else:
                out[metric.name] = metric.value
        return out


def cache_snapshot(stats: Any) -> dict[str, Any]:
    """Normalise any cache-stat struct to one canonical shape.

    Works for ``StoreStats`` (hits/misses/puts/evictions/errors),
    ``ServeCacheStats`` (hits/misses/evictions), ``CacheStats`` (derived
    hits/misses/evictions properties) and ``lru_cache``'s ``CacheInfo``.
    ``hit_rate`` is always guarded against zero lookups.
    """
    hits = int(getattr(stats, "hits", 0))
    misses = int(getattr(stats, "misses", 0))
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "evictions": int(getattr(stats, "evictions", 0)),
        "puts": int(getattr(stats, "puts", 0)),
        "errors": int(getattr(stats, "errors", 0)),
        "lookups": lookups,
        "hit_rate": hits / lookups if lookups else 0.0,
    }


# -- process-wide default registry and collectors ----------------------

_default: MetricsRegistry | None = None
_collectors: list[Callable[[], Any]] = []
_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """Process-wide registry for ambient counters (created on first use)."""
    global _default
    with _lock:
        if _default is None:
            _default = MetricsRegistry()
            _maybe_register_env_export()
        return _default


def register_collector(collect: Callable[[], MetricsRegistry]) -> None:
    """Register a collector whose registry should appear in expositions.

    Bound methods (e.g. ``server.observability``) are held via
    :class:`weakref.WeakMethod` so registering never keeps a server alive;
    plain functions are held strongly.
    """
    ref: Callable[[], Callable[[], MetricsRegistry] | None]
    try:
        ref = weakref.WeakMethod(collect)
    except TypeError:

        def ref(fn: Callable[[], MetricsRegistry] = collect):
            return fn

    with _lock:
        _collectors[:] = [r for r in _collectors if r() is not None]
        _collectors.append(ref)


def exposition() -> str:
    """Render the default registry plus all live collectors as Prometheus text."""
    from .export import render_prometheus

    merged = MetricsRegistry().merge(default_registry())
    with _lock:
        live = [ref for ref in _collectors if ref() is not None]
        _collectors[:] = live
    for ref in live:
        collect = ref()
        if collect is None:
            continue
        try:
            merged.merge(collect())
        except Exception:
            continue
    return render_prometheus(merged)


_env_export_registered = False


def _maybe_register_env_export() -> None:
    global _env_export_registered
    if _env_export_registered:
        return
    raw = os.environ.get(ENV_METRICS)
    if raw is None or raw.strip().lower() in _DISABLED_VALUES:
        return
    _env_export_registered = True
    import atexit

    def _export(path: str = raw) -> None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(exposition())
        except OSError:
            pass

    atexit.register(_export)
