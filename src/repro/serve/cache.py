"""Bounded LRU cache for served results.

Serving workloads repeat inputs (the same frame, tile or grid gets
requested again), so the server memoizes *served kernel outputs* keyed by
(application, configuration key, input fingerprint).  The key is
:attr:`ApproximationConfig.key <repro.core.config.ApproximationConfig.key>`,
not the figure label, which drops the work group and scheme parameters:
configurations that share a label produce different outputs.  The store is the
library's one in-memory LRU (:class:`repro.api.cache.LRUCache`) with a
configurable capacity — a serving process must not grow without bound —
and counts hits, misses, puts and evictions in a
:class:`~repro.api.cache.StoreStats`.

Inputs are fingerprinted by content via
:func:`repro.api.cache.input_token`; inputs that cannot be fingerprinted
simply bypass the cache (counted as misses).
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np

from ..api.cache import LRUCache, input_token
from ..core.errors import ConfigurationError

#: Default number of cached results.
DEFAULT_CAPACITY = 256


class ServeResultCache(LRUCache):
    """Thread-safe bounded LRU of (output, measured error) pairs.

    :meth:`get` returns the cached pair, or ``None`` on a miss (a ``None``
    key, from an input :meth:`key` cannot fingerprint, always misses).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(f"cache capacity must be >= 1, got {capacity}")
        super().__init__(capacity)

    @staticmethod
    def key(app_name: str, config_key: str, inputs: Any) -> Hashable | None:
        """Cache key of one request, or ``None`` when not fingerprintable."""
        token = input_token(inputs)
        if token is None:
            return None
        return (app_name, config_key, token)

    def put(self, key: Hashable | None, output: np.ndarray, error: float | None) -> None:
        """Store a served output (shared read-only; ``.copy()`` to mutate)."""
        if key is None:
            return
        stored = np.array(output, copy=True)
        stored.setflags(write=False)
        super().put(key, (stored, error))
