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

The on-disk machinery is the shared generic store
(:class:`repro.api.store.DiskStore`): atomic writes, LRU bound,
corruption recovery, best-effort everywhere — a broken or unwritable
database degrades to "tune fresh", it never fails a session.  Entries are
one file per record: a header line followed by a canonical-JSON body
(JSON floats round-trip Python floats exactly, which is what makes warm
ladders bit-identical to freshly calibrated ones).

Environment variables (same conventions as ``REPRO_CODEGEN_CACHE*``):

* ``REPRO_TUNING_DB`` — overrides the directory (default
  ``~/.cache/repro-tuning``); the values ``0`` / ``off`` / ``none`` /
  ``disabled`` turn persistence off;
* ``REPRO_TUNING_DB_MAX`` — overrides the LRU bound (default 4096).
"""

from __future__ import annotations

import hashlib
import json
import os

from ..api.store import DISABLED_VALUES, DiskStore, StoreStats, env_store_config

#: Environment variable overriding the database directory (or disabling it).
ENV_DB_DIR = "REPRO_TUNING_DB"

#: Environment variable overriding the eviction bound.
ENV_DB_MAX = "REPRO_TUNING_DB_MAX"

DEFAULT_DB_DIR = "~/.cache/repro-tuning"
DEFAULT_DB_MAX = 4096

#: Every record starts with this line; anything else is treated as corrupt.
DB_HEADER = "# repro-tuning-db record"

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


class TuningDB:
    """Dictionary-like persistent store of JSON tuning records."""

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        max_entries: int | None = None,
    ) -> None:
        self.store = DiskStore(
            root if root is not None else DEFAULT_DB_DIR,
            max_entries if max_entries is not None else DEFAULT_DB_MAX,
            header=DB_HEADER,
            suffix=".json",
        )
        #: Hit/miss/put/eviction/error counters of the underlying store.
        self.stats: StoreStats = self.store.stats

    @property
    def root(self):
        return self.store.root

    # ------------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The record stored under ``key``, or ``None`` on miss/corruption."""
        text = self.store.get(key)
        if text is None:
            return None
        _, _, body = text.partition("\n")
        try:
            record = json.loads(body)
        except json.JSONDecodeError:
            record = None
        if not isinstance(record, dict):
            # Header intact but body torn/garbled: drop the entry and
            # reclassify the store's lookup as a miss — the caller has to
            # tune fresh, so reporting it as a hit would skew hit_rate.
            self.store.invalidate(key)
            self.stats.hits -= 1
            self.stats.misses += 1
            self.stats.errors += 1
            return None
        return record

    def put(self, key: str, record: dict) -> bool:
        """Store ``record`` (a JSON-serializable dict) under ``key``."""
        body = json.dumps(record, sort_keys=True)
        return self.store.put(key, f"{DB_HEADER} v{DB_FORMAT_VERSION}\n{body}\n")

    def invalidate(self, key: str) -> None:
        self.store.invalidate(key)

    def clear(self) -> int:
        return self.store.clear()

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TuningDB(root={str(self.root)!r}, entries={len(self)})"


# ---------------------------------------------------------------------------
# Process default
# ---------------------------------------------------------------------------
_default_dbs: dict[tuple[str, int], TuningDB] = {}


def default_db() -> TuningDB | None:
    """The process-wide database per the environment, or ``None`` if disabled.

    Re-reads the environment on every call; instances are shared per
    (directory, bound) so the stats accumulate — the same conventions as
    :func:`repro.api.artifacts.default_cache`.
    """
    config = env_store_config(ENV_DB_DIR, ENV_DB_MAX, DEFAULT_DB_DIR, DEFAULT_DB_MAX)
    if config is None:
        return None
    db = _default_dbs.get(config)
    if db is None:
        db = _default_dbs[config] = TuningDB(*config)
    return db


def resolve_db(db) -> TuningDB | None:
    """Normalise a database selection.

    ``None`` resolves to the environment default, ``False``/``"off"``
    disables persistence, a :class:`TuningDB` passes through, and a path
    opens a database at that location.
    """
    if db is None:
        return default_db()
    if db is False or (isinstance(db, str) and db.strip().lower() in DISABLED_VALUES):
        return None
    if isinstance(db, TuningDB):
        return db
    return TuningDB(db)
