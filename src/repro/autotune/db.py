"""Persistent cross-session tuning database.

The TuningDB stores finished tuning results on disk so a configuration
search never runs twice: a second session (or a serve restart) that asks
the same tuning question gets the recorded answer back bit-identically,
with **zero** kernel evaluations.

Records are keyed by a content hash over the full tuning question —
application, device, the inputs' content fingerprint
(:func:`repro.api.cache.input_token`), space signature (which embeds
:data:`~repro.autotune.space.SPACE_VERSION`), strategy identity, seed and
budget (not the backend: tuning launches no kernel) — so any change to
any ingredient simply misses; stale records can never alias.  A question
about inputs that have no fingerprint has no key and bypasses the
database.

The database is the library's only disk store:

* one file per record under a single directory, named by its hex key
  (hostile keys — path separators, non-hex — never touch the disk): a
  header line followed by a canonical-JSON body (JSON floats round-trip
  Python floats exactly, which is what makes warm results bit-identical
  to fresh ones);
* writes are atomic (temp file + :func:`os.replace`), so a crashed or
  concurrent process never leaves a torn entry, and processes share one
  directory safely;
* a torn or foreign entry (no header, or a body that is not a JSON
  object) is *recovered from*, never trusted: it is dropped and counts as
  a miss, so the caller tunes fresh;
* the database is bounded: beyond ``max_entries`` the least-recently-used
  records are evicted (``get`` refreshes an entry's mtime);
* every operation is best-effort — a filesystem failure degrades to "tune
  fresh", is tallied in :attr:`TuningDB.stats`, and never fails a session.

Environment variables:

* ``REPRO_TUNING_DB`` — overrides the directory (default
  ``~/.cache/repro-tuning``); an empty value or ``0`` / ``off`` /
  ``none`` / ``disable`` / ``disabled``, in any case, turns persistence
  off (:data:`repro.env.DISABLED_VALUES`);
* ``REPRO_TUNING_DB_MAX`` — overrides the LRU bound (default 4096).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from ..api.cache import StoreStats
from ..env import switched_off

#: Environment variable overriding the database directory (or disabling it).
ENV_DB_DIR = "REPRO_TUNING_DB"

#: Environment variable overriding the eviction bound.
ENV_DB_MAX = "REPRO_TUNING_DB_MAX"

DEFAULT_DB_DIR = "~/.cache/repro-tuning"
DEFAULT_DB_MAX = 4096

#: Every record starts with this line; anything else is treated as corrupt.
DB_HEADER = "# repro-tuning-db record"

#: File extension of a record; other files in the directory are not entries.
DB_SUFFIX = ".json"

#: Record format version; part of every key, so format changes miss cleanly.
DB_FORMAT_VERSION = 1


def tuning_key(**parts) -> str:
    """Content hash of a tuning question (keyword parts, canonical JSON).

    The record format version *and the library version* are always part
    of the hash: evaluation results depend on the kernels, samplers and
    timing model, so a release that changes any of them must miss rather
    than replay floats measured by code that no longer exists.
    """
    from .. import __version__

    payload = {"format": DB_FORMAT_VERSION, "library": __version__, **parts}
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _valid_key(key: str) -> bool:
    return (
        isinstance(key, str)
        and 8 <= len(key) <= 128
        and all(c in "0123456789abcdef" for c in key)
    )


class TuningDB:
    """Dictionary-like persistent store of JSON tuning records."""

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        max_entries: int | None = None,
    ) -> None:
        self.root = Path(root if root is not None else DEFAULT_DB_DIR).expanduser()
        self.max_entries = int(max_entries if max_entries is not None else DEFAULT_DB_MAX)
        if self.max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        #: Hit/miss/put/eviction/error counters.
        self.stats = StoreStats()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{DB_SUFFIX}"

    # ------------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The record stored under ``key``, or ``None`` on a miss.

        A torn or foreign entry is dropped and counts as a miss.
        """
        if not _valid_key(key):
            self.stats.misses += 1
            return None
        path = self._path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            if not isinstance(exc, FileNotFoundError):
                self.stats.errors += 1
            self.stats.misses += 1
            return None
        header, _, body = text.partition("\n")
        record = None
        if header.startswith(DB_HEADER):
            try:
                record = json.loads(body)
            except json.JSONDecodeError:
                pass
        if not isinstance(record, dict):
            self.invalidate(key)
            self.stats.misses += 1
            return None
        try:
            os.utime(path)  # refresh LRU position
        except OSError:
            pass
        self.stats.hits += 1
        return record

    def put(self, key: str, record: dict) -> bool:
        """Store ``record`` (a JSON-serializable dict) under ``key`` atomically.

        Evicts the least-recently-used records beyond the bound.
        """
        if not _valid_key(key):
            self.stats.errors += 1
            return False
        body = json.dumps(record, sort_keys=True)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=self.root, prefix=".tmp-", suffix=DB_SUFFIX)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(f"{DB_HEADER} v{DB_FORMAT_VERSION}\n{body}\n")
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
        """Drop one record (missing records are fine)."""
        if not _valid_key(key):
            return
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def clear(self) -> int:
        """Remove every record; returns how many were removed."""
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
            return [p for p in self.root.glob(f"*{DB_SUFFIX}") if not p.name.startswith(".")]
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
        return f"TuningDB(root={str(self.root)!r}, entries={len(self)})"


# ---------------------------------------------------------------------------
# Process default
# ---------------------------------------------------------------------------
_default_dbs: dict[tuple[str, int], TuningDB] = {}


def default_db() -> TuningDB | None:
    """The process-wide database per the environment, or ``None`` if disabled.

    Re-reads the environment on every call (cheap, and lets tests and
    operators flip ``REPRO_TUNING_DB`` without restarting); instances are
    shared per (directory, bound) so the stats accumulate.
    """
    configured = os.environ.get(ENV_DB_DIR, DEFAULT_DB_DIR)
    if switched_off(configured):
        return None
    # expanduser here too: '~' reaches us literally from systemd/Docker/CI
    # environments where no shell expanded it.
    root = os.path.expanduser(configured)
    try:
        max_entries = int(os.environ.get(ENV_DB_MAX, DEFAULT_DB_MAX))
    except ValueError:
        max_entries = DEFAULT_DB_MAX
    if max_entries < 1:
        max_entries = DEFAULT_DB_MAX
    db = _default_dbs.get((root, max_entries))
    if db is None:
        db = _default_dbs[root, max_entries] = TuningDB(root, max_entries)
    return db


def resolve_db(db) -> TuningDB | None:
    """Normalise a database selection.

    ``None`` resolves to the environment default, ``False`` or a string
    :func:`repro.env.switched_off` accepts (``"off"``, ``"disable"``, ...)
    disables persistence, a :class:`TuningDB` passes through, and a path
    opens a database at that location.
    """
    if db is None:
        return default_db()
    if db is False or (isinstance(db, str) and switched_off(db)):
        return None
    if isinstance(db, TuningDB):
        return db
    return TuningDB(db)
