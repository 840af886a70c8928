"""Typed metrics registry: counters, gauges, quantile histograms.

The registry is the one place serving metrics are stored, serialised and
merged (``repro.serve.metrics.ServeMetrics`` is a typed view over one).
Registries from fleet workers ship over the wire as :meth:`to_dict` and
fold into the front-end's view with :meth:`MetricsRegistry.merge`:

* counters **add**,
* gauges take the **maximum** (concurrent processes have no shared ordering,
  and every gauge we export — buffer sizes, worst fractions, wall clocks —
  is a high-water mark),
* histograms add their bucket counts and fold ``min``/``max``.

:class:`Histogram` is a log-bucket quantile sketch in the style of DDSketch
(Masson, Rim & Lee, VLDB 2019): its size grows with the logarithm of the
range of values observed, not with their number.

:func:`cache_snapshot` is the one canonical shape for cache statistics: it
reads :class:`repro.api.store.StoreStats`, the counters of every cache in
memory or on disk, and ``functools.lru_cache``'s ``CacheInfo``, and guards
the ``hit_rate`` ratio against empty caches.
"""

from __future__ import annotations

import math
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
    "RELATIVE_ACCURACY",
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


#: Relative accuracy of every histogram quantile: the reported value is
#: within this fraction of the exact nearest-rank value.
RELATIVE_ACCURACY = 0.01

_GAMMA = (1.0 + RELATIVE_ACCURACY) / (1.0 - RELATIVE_ACCURACY)
_LOG_GAMMA = math.log(_GAMMA)

#: Sums are held as integers in units of the smallest positive double,
#: 2**-1074, so adding observations and merging histograms is exact.
_SUM_BITS = 1074


def _fixed(value: float) -> int:
    """``value`` as an exact integer multiple of 2**-_SUM_BITS."""
    numerator, denominator = value.as_integer_ratio()
    return numerator << (_SUM_BITS + 1 - denominator.bit_length())


class Histogram:
    """Mergeable quantile sketch of non-negative observations.

    A positive value ``v`` lands in bucket ``ceil(log(v) / log(gamma))``
    with ``gamma = (1 + a) / (1 - a)`` and ``a = RELATIVE_ACCURACY``; every
    value in bucket ``i`` is within ``a`` of ``2 * gamma**i / (gamma + 1)``,
    which :meth:`quantile` reports.  Zeros have a bucket of their own.
    Count, sum, min and max are exact.  Merging adds bucket counts, so the
    result depends only on the observations, not on how they were split
    or in which order the parts were merged.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "count", "zeros", "buckets", "min", "max", "_sum")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.count = 0
        self.zeros = 0
        self.buckets: dict[int, int] = {}
        self.min = math.inf
        self.max = -math.inf
        self._sum = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if not 0.0 <= value < math.inf:
            raise ValueError(f"histogram {self.name} observes finite values >= 0, got {value}")
        self.count += 1
        self._sum += _fixed(value)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0.0:
            self.zeros += 1
            return
        index = math.ceil(math.log(value) / _LOG_GAMMA)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def sum(self) -> float:
        return self._sum / (1 << _SUM_BITS)  # int division rounds correctly

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank ``q``-quantile (``q`` in [0, 1]); NaN when empty.

        Within ``RELATIVE_ACCURACY`` of the exact nearest-rank value, and
        exact for zeros and for the maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1], got {q}")
        if not self.count:
            return math.nan
        rank = max(1, math.ceil(q * self.count))
        seen = self.zeros
        if rank <= seen:
            return 0.0
        if rank < self.count:
            for index in sorted(self.buckets):
                seen += self.buckets[index]
                if seen >= rank:
                    estimate = 2.0 * _GAMMA**index / (_GAMMA + 1.0)
                    return min(max(estimate, self.min), self.max)
        return self.max

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.zeros += other.zeros
        self._sum += other._sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

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
            out["zeros"] = self.zeros
            # JSON object keys are strings; load() converts them back.
            out["buckets"] = {str(index): self.buckets[index] for index in sorted(self.buckets)}
        return out

    def load(self, data: dict[str, Any]) -> None:
        self.count = data.get("count", 0)
        self._sum = _fixed(float(data.get("sum", 0.0)))
        self.min = data.get("min", math.inf)
        self.max = data.get("max", -math.inf)
        self.zeros = data.get("zeros", 0)
        self.buckets = {int(index): n for index, n in data.get("buckets", {}).items()}


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
        """Fold cache statistics into ``{prefix}.hits`` etc. counters."""
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
    """Normalise cache statistics to one canonical shape.

    Works for ``StoreStats`` (hits/misses/puts/evictions/errors) and
    ``lru_cache``'s ``CacheInfo`` (hits/misses; the rest read as 0).
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
