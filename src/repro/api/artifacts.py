"""On-disk artifact cache for codegen-lowered kernels.

The codegen execution backend (:mod:`repro.kernellang.codegen`) lowers each
(kernel source, work-group shape) pair to Python source once.
This module persists those sources across processes, keyed by the lowering's
content hash, so repeated sweeps, serve sessions and benchmark runs skip the
lowering step entirely:

* the default location is ``~/.cache/repro-codegen``; the
  ``REPRO_CODEGEN_CACHE`` environment variable overrides it, and the values
  ``0`` / ``off`` / ``none`` / ``disabled`` turn persistence off;
* writes are atomic (temp file + ``os.replace``), so a crashed or
  concurrent process can never leave a torn entry;
* corrupt or stale entries are *recovered from*, never trusted: a bad
  header here (or a failed ``compile()`` in the consumer) counts as a miss,
  the entry is dropped, and the kernel is lowered fresh — the content key
  embeds the lowering format version, so old-format artifacts simply miss;
* the cache is bounded: beyond ``max_entries`` (default 512, overridable
  via ``REPRO_CODEGEN_CACHE_MAX``) the least-recently-used entries are
  evicted (``get`` refreshes an entry's mtime).

Every filesystem failure degrades to "no cache" — executing a kernel never
fails because the cache directory is unwritable, full or being raced.

The atomic-write/LRU/corruption-recovery machinery itself is generic and
lives in :class:`repro.api.store.DiskStore`; this module configures it for
Python artifact sources (the autotuning database,
:mod:`repro.autotune.db`, configures the same store for JSON tuning
records).
"""

from __future__ import annotations

import os

from .store import DISABLED_VALUES, DiskStore, env_store_config

__all__ = [
    "ARTIFACT_HEADER",
    "ArtifactCache",
    "DISABLED_VALUES",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MAX_ENTRIES",
    "ENV_CACHE_DIR",
    "ENV_CACHE_MAX",
    "default_cache",
    "env_store_config",
]

#: Environment variable overriding the cache directory (or disabling it).
ENV_CACHE_DIR = "REPRO_CODEGEN_CACHE"

#: Environment variable overriding the eviction bound.
ENV_CACHE_MAX = "REPRO_CODEGEN_CACHE_MAX"

DEFAULT_CACHE_DIR = "~/.cache/repro-codegen"
DEFAULT_MAX_ENTRIES = 512

#: Every artifact starts with this line; anything else is treated as corrupt.
ARTIFACT_HEADER = "# repro-codegen artifact"


class ArtifactCache(DiskStore):
    """Content-keyed store of lowered kernel sources under one directory.

    Keys are the hex content hashes produced by
    :func:`repro.kernellang.codegen.artifact_key`; values are Python source
    files (one per key).  All operations are best-effort: filesystem errors
    count as misses / no-ops and are tallied in :attr:`stats`.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        max_entries: int | None = None,
    ) -> None:
        if root is None:
            root = DEFAULT_CACHE_DIR
        if max_entries is None:
            max_entries = DEFAULT_MAX_ENTRIES
        super().__init__(
            root, max_entries, header=ARTIFACT_HEADER, suffix=".py"
        )


# ---------------------------------------------------------------------------
# Process default
# ---------------------------------------------------------------------------
_default_caches: dict[tuple[str, int], ArtifactCache] = {}


def default_cache() -> ArtifactCache | None:
    """The process-wide cache per the environment, or ``None`` if disabled.

    Re-reads the environment on every call (cheap, and lets tests and
    operators flip ``REPRO_CODEGEN_CACHE`` without restarting); instances
    are shared per (directory, bound) so the stats accumulate.
    """
    config = env_store_config(
        ENV_CACHE_DIR, ENV_CACHE_MAX, DEFAULT_CACHE_DIR, DEFAULT_MAX_ENTRIES
    )
    if config is None:
        return None
    cache = _default_caches.get(config)
    if cache is None:
        cache = _default_caches[config] = ArtifactCache(*config)
    return cache
