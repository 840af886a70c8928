"""Generic persistent key/value store with atomic writes and LRU eviction.

Two subsystems persist derived results across processes: the codegen
artifact cache (:mod:`repro.api.artifacts`) stores lowered kernel sources,
and the autotuning database (:mod:`repro.autotune.db`) stores tuning
results.  Both need the exact same on-disk machinery, so it lives here
once:

* one file per entry under a single directory, keyed by a hex content
  hash (hostile keys — path separators, non-hex — never touch the disk);
* writes are atomic (temp file + :func:`os.replace`), so a crashed or
  concurrent process can never leave a torn entry — the fleet's workers
  (:mod:`repro.fleet`) read and write one shared artifact cache this way;
* corrupt entries are *recovered from*, never trusted: a missing header
  counts as a miss and the entry is dropped, so the consumer recomputes;
* the store is bounded: beyond ``max_entries`` the least-recently-used
  entries are evicted (``get`` refreshes an entry's mtime);
* every operation is best-effort — filesystem failures degrade to "no
  store" and are tallied in the :attr:`DiskStore.stats` counters, they
  never propagate to the caller.

:class:`StoreStats` is the one cache-stats type of the library: the
in-memory :class:`repro.api.cache.LRUCache` stores count in it too.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

#: Environment values that disable a store's on-disk persistence.
DISABLED_VALUES = frozenset({"0", "off", "none", "disabled"})


def env_store_config(
    env_dir: str,
    env_max: str,
    default_dir: str,
    default_max: int,
) -> tuple[str, int] | None:
    """Resolve a store's (directory, bound) from the environment.

    Returns ``None`` when the directory variable holds one of the
    :data:`DISABLED_VALUES`.  Shared by the codegen artifact cache
    (``REPRO_CODEGEN_CACHE*``) and the tuning database
    (``REPRO_TUNING_DB*``) so every store honours the same
    override/disable conventions.
    """
    configured = os.environ.get(env_dir)
    if configured is not None and configured.strip().lower() in DISABLED_VALUES:
        return None
    # expanduser here too: '~' reaches us literally from systemd/Docker/CI
    # environments where no shell expanded it.
    root = os.path.expanduser(configured or default_dir)
    try:
        max_entries = int(os.environ.get(env_max, default_max))
    except ValueError:
        max_entries = default_max
    if max_entries < 1:
        max_entries = default_max
    return root, max_entries


@dataclass
class StoreStats:
    """Hit/miss/put/eviction/error counters of one cache, on disk or in memory."""

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


class DiskStore:
    """Content-keyed store of text entries under one directory.

    Keys are hex content hashes; values are text files (one per key) whose
    first line must start with ``header`` — anything else is treated as
    corruption, dropped, and reported as a miss.  ``suffix`` picks the
    file extension (``.py`` for artifact sources, ``.json`` for tuning
    records), which also namespaces stores sharing a directory.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        max_entries: int = 512,
        *,
        header: str,
        suffix: str = ".txt",
    ) -> None:
        self.root = Path(root).expanduser()
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if not header:
            raise ValueError("header must be a non-empty string")
        if not suffix.startswith("."):
            raise ValueError(f"suffix must start with '.', got {suffix!r}")
        self.max_entries = int(max_entries)
        self.header = header
        self.suffix = suffix
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    @staticmethod
    def _valid_key(key: str) -> bool:
        return (
            isinstance(key, str)
            and 8 <= len(key) <= 128
            and all(c in "0123456789abcdef" for c in key)
        )

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    # ------------------------------------------------------------------
    def get(self, key: str) -> str | None:
        """The stored text for ``key``, or ``None`` on miss/corruption."""
        if not self._valid_key(key):
            self.stats.misses += 1
            return None
        path = self._path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        if not text.startswith(self.header):
            # Corrupt (or foreign) entry: drop it and let the caller recompute.
            self.invalidate(key)
            self.stats.misses += 1
            return None
        try:
            os.utime(path)  # refresh LRU position
        except OSError:
            pass
        self.stats.hits += 1
        return text

    def put(self, key: str, text: str) -> bool:
        """Store ``text`` under ``key`` atomically; evicts beyond the bound."""
        if not self._valid_key(key) or not text.startswith(self.header):
            self.stats.errors += 1
            return False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=self.suffix
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(tmp_name, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            self.stats.errors += 1
            return False
        self.stats.puts += 1
        self._evict()
        return True

    def invalidate(self, key: str) -> None:
        """Drop one entry (missing entries are fine)."""
        if not self._valid_key(key):
            return
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                self.stats.errors += 1
        return removed

    # ------------------------------------------------------------------
    def _entries(self) -> list[Path]:
        try:
            return [
                p for p in self.root.glob(f"*{self.suffix}") if not p.name.startswith(".")
            ]
        except OSError:
            return []

    def __len__(self) -> int:
        return len(self._entries())

    def _evict(self) -> None:
        entries = self._entries()
        if len(entries) <= self.max_entries:
            return

        def mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0

        entries.sort(key=mtime)
        for path in entries[: len(entries) - self.max_entries]:
            try:
                path.unlink()
                self.stats.evictions += 1
            except OSError:
                self.stats.errors += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(root={str(self.root)!r}, entries={len(self)}, "
            f"max_entries={self.max_entries})"
        )
