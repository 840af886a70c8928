"""The one in-memory LRU: a bounded, thread-safe store with single-flight fills.

Every in-memory result store of the library is an :class:`LRUCache`:

* the engine's reference store — the accurate output per (application,
  input), computed once however many configurations and workers compare
  against it (:attr:`repro.api.engine.PerforationEngine.references`);
* the engine's timing store — the timing model's breakdown per
  (application, configuration, global size)
  (:attr:`repro.api.engine.PerforationEngine.timings`);
* the server's result cache (:class:`repro.serve.cache.ServeResultCache`).

Each counts its hits, misses, puts and evictions in one
:class:`StoreStats`, the stats type of the tuning database
(:class:`repro.autotune.db.TuningDB`) too.  The kernel-build cache is
:func:`repro.core.perforator.build_kernel`'s ``functools.lru_cache``.

Inputs are identified by content (:func:`input_token`): NumPy arrays hash
to a digest of their bytes, dataclass instances (e.g.
:class:`repro.data.hotspot.HotspotInput`) hash field by field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Callable, Hashable

import numpy as np


@dataclasses.dataclass
class StoreStats:
    """Hit/miss/put/eviction/error counters of one cache, in memory or on disk."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def input_token(inputs: Any) -> Hashable:
    """A hashable fingerprint of an evaluation input.

    Arrays are digested by content (shape, dtype, bytes); containers and
    dataclasses recurse; plain hashables pass through.  Returns ``None``
    when the object cannot be fingerprinted.
    """
    if isinstance(inputs, np.ndarray):
        digest = hashlib.sha1()
        digest.update(str(inputs.shape).encode())
        digest.update(str(inputs.dtype).encode())
        digest.update(np.ascontiguousarray(inputs).tobytes())
        return ("ndarray", digest.hexdigest())
    if dataclasses.is_dataclass(inputs) and not isinstance(inputs, type):
        parts = tuple(
            (f.name, input_token(getattr(inputs, f.name)))
            for f in dataclasses.fields(inputs)
        )
        if any(token is None for _, token in parts):
            return None
        return (type(inputs).__name__, parts)
    if isinstance(inputs, (tuple, list)):
        parts = tuple(input_token(item) for item in inputs)
        if any(token is None for token in parts):
            return None
        return ("sequence", parts)
    if isinstance(inputs, (str, bytes, int, float, bool)) or inputs is None:
        return ("scalar", inputs)
    return None


class LRUCache:
    """Thread-safe LRU of at most ``capacity`` entries, counted in :attr:`stats`.

    ``None`` is never stored, so :meth:`get` returns ``None`` exactly on a
    miss.  :meth:`get_or_compute` fills a missing key once however many
    threads miss on it together; misses on different keys never wait for
    each other, and a failed fill leaves nothing behind.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = StoreStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        #: Keys being computed, each with the future its waiters block on.
        self._inflight: dict[Hashable, Future] = {}

    def get(self, key: Hashable) -> Any:
        """The value under ``key`` (refreshed as most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` as the most recent entry, evicting the oldest."""
        with self._lock:
            self._store(key, value)

    def _store(self, key: Hashable, value: Any) -> None:
        # Caller holds the lock.
        self._entries[key] = value
        self._entries.move_to_end(key)
        self.stats.puts += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The value under ``key``, calling ``compute()`` once on a miss.

        ``compute`` runs outside the cache lock.  Threads that miss on a
        key already being computed wait for that computation and count as
        hits; if it raises, they raise the same exception and nothing is
        stored.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return value
            flight = self._inflight.get(key)
            if flight is None:
                flight = self._inflight[key] = Future()
                self.stats.misses += 1
                leader = True
            else:
                self.stats.hits += 1
                leader = False
        if not leader:
            return flight.result()
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                del self._inflight[key]
            flight.set_exception(exc)
            raise
        with self._lock:
            del self._inflight[key]
            self._store(key, value)
        flight.set_result(value)
        return value

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.stats = StoreStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
