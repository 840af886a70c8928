"""Artifact-cache semantics: hit/miss/eviction, corruption recovery, env
override and content-key invalidation.

The on-disk cache must never change execution results — only skip the
lowering step — so most tests here drive it through the real codegen
backend and assert the outputs stay bit-identical across cache states.
"""

import os

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.api.artifacts import (
    ARTIFACT_HEADER,
    ArtifactCache,
    DEFAULT_MAX_ENTRIES,
    ENV_CACHE_DIR,
    ENV_CACHE_MAX,
    default_cache,
)
from repro.core.perforator import build_kernel
from repro.data import generate_image
from repro.kernellang import codegen


HEADER = ARTIFACT_HEADER + " (format test)\n"


def _key(n: int) -> str:
    return f"{n:064x}"


def _source(n: int) -> str:
    return f"{HEADER}x = {n}\n"


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "artifacts", max_entries=4)


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    """Point the process default cache at a fresh directory, starting (and
    ending) with an empty in-memory build cache, as a fresh process would."""
    root = tmp_path / "cgcache"
    monkeypatch.setenv(ENV_CACHE_DIR, str(root))
    monkeypatch.delenv(ENV_CACHE_MAX, raising=False)
    build_kernel.cache_clear()
    yield root
    build_kernel.cache_clear()


class TestCacheBasics:
    def test_miss_then_put_then_hit(self, cache):
        assert cache.get(_key(1)) is None
        assert cache.stats.misses == 1
        assert cache.put(_key(1), _source(1))
        assert cache.get(_key(1)) == _source(1)
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_invalidate_and_clear(self, cache):
        for n in range(3):
            cache.put(_key(n), _source(n))
        cache.invalidate(_key(0))
        assert cache.get(_key(0)) is None
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_invalid_keys_never_touch_disk(self, cache):
        assert cache.get("../../etc/passwd") is None
        assert not cache.put("not-a-hash!", _source(1))
        assert cache.stats.errors == 1
        cache.invalidate("..")  # no-op, no exception

    def test_put_rejects_headerless_source(self, cache):
        assert not cache.put(_key(1), "print('hi')\n")
        assert cache.get(_key(1)) is None

    def test_corrupt_entry_is_dropped_on_get(self, cache):
        cache.put(_key(1), _source(1))
        (cache.root / f"{_key(1)}.py").write_text("garbage", encoding="utf-8")
        assert cache.get(_key(1)) is None
        assert len(cache) == 0  # the bad entry was removed

    def test_unwritable_root_degrades_to_no_cache(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should be")
        cache = ArtifactCache(blocker / "sub")
        assert not cache.put(_key(1), _source(1))
        assert cache.get(_key(1)) is None
        assert cache.stats.errors >= 1


class TestEviction:
    def test_lru_eviction_beyond_bound(self, cache):
        for n in range(6):
            assert cache.put(_key(n), _source(n))
            os.utime(cache._path(_key(n)), (n, n))  # deterministic LRU order
        cache._evict()
        assert len(cache) == 4
        assert cache.stats.evictions >= 2
        # Oldest entries went first.
        assert cache.get(_key(0)) is None
        assert cache.get(_key(5)) == _source(5)

    def test_get_refreshes_lru_position(self, cache):
        for n in range(4):
            cache.put(_key(n), _source(n))
            os.utime(cache._path(_key(n)), (n, n))
        assert cache.get(_key(0)) == _source(0)  # refreshes mtime
        cache.put(_key(9), _source(9))  # evicts beyond max_entries=4
        assert cache.get(_key(0)) == _source(0)
        assert cache.get(_key(1)) is None


class TestEnvOverride:
    def test_env_overrides_directory(self, cache_env):
        cache = default_cache()
        assert cache is not None
        assert str(cache.root) == str(cache_env)

    def test_disabled_values(self, monkeypatch):
        for value in ("0", "off", "NONE", " disabled "):
            monkeypatch.setenv(ENV_CACHE_DIR, value)
            assert default_cache() is None

    def test_max_entries_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "c"))
        monkeypatch.setenv(ENV_CACHE_MAX, "7")
        assert default_cache().max_entries == 7
        monkeypatch.setenv(ENV_CACHE_MAX, "bogus")
        assert default_cache().max_entries == DEFAULT_MAX_ENTRIES

    def test_instances_shared_per_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "c"))
        assert default_cache() is default_cache()


class TestBackendIntegration:
    """The cache only ever skips lowering — results stay bit-identical."""

    def _run(self):
        engine = PerforationEngine(backend="codegen")
        image = generate_image("natural", size=16, seed=3)
        return engine.run_compiled("gaussian", image)

    @staticmethod
    def _entry_texts(cache):
        texts = {path.read_text(encoding="utf-8") for path in cache._entries()}
        assert texts, "the run should have stored its artifact"
        return texts

    def test_populates_then_hits_across_processes(self, cache_env):
        reference = self._run()
        cache = default_cache()
        assert cache.stats.puts >= 1
        assert len(cache) >= 1
        # Simulate a fresh process: drop the in-memory build cache, rerun.
        build_kernel.cache_clear()
        hits_before = cache.stats.hits
        np.testing.assert_array_equal(self._run(), reference)
        assert cache.stats.hits > hits_before

    def test_corrupt_artifact_recovers_bit_identically(self, cache_env):
        reference = self._run()
        cache = default_cache()
        corrupt = "def kernel_group(:\n"
        for path in cache._entries():
            path.write_text(corrupt, encoding="utf-8")
        build_kernel.cache_clear()
        np.testing.assert_array_equal(self._run(), reference)
        assert corrupt not in self._entry_texts(cache)  # re-lowered and re-stored

    def test_parseable_but_broken_artifact_recovers(self, cache_env):
        """Corruption that survives the header check AND compiles, but
        raises at module-exec time, must still count as a miss."""
        from repro.api.artifacts import ARTIFACT_HEADER

        reference = self._run()
        cache = default_cache()
        corrupt = ARTIFACT_HEADER + "\nboom = undefined_name\n"
        for path in cache._entries():
            path.write_text(corrupt, encoding="utf-8")
        build_kernel.cache_clear()
        np.testing.assert_array_equal(self._run(), reference)
        assert corrupt not in self._entry_texts(cache)  # re-lowered and re-stored

    def test_key_changes_with_kernel_source_and_config(self):
        from repro.apps import get_application
        from repro.core import ApproximationConfig
        from repro.core.schemes import RowPerforation

        app = get_application("gaussian")
        accurate = app.perforator().accurate()
        perforated = app.perforator().perforate(
            ApproximationConfig(scheme=RowPerforation(step=2), work_group=(8, 8))
        )
        key = codegen.artifact_key(accurate.source, "gaussian", (8, 8))
        assert key != codegen.artifact_key(
            perforated.source, "gaussian", (8, 8)
        ), "perforation config must change the key (it rewrites the source)"
        assert key != codegen.artifact_key(accurate.source, "gaussian", (4, 4))
        assert key != codegen.artifact_key(accurate.source, "blur", (8, 8))
        assert key != codegen.artifact_key(accurate.source + " ", "gaussian", (8, 8))
        assert key == codegen.artifact_key(accurate.source, "gaussian", (8, 8))


class TestGenericStore:
    """The artifact cache is one consumer of the generic DiskStore; the
    tuning database is the other.  Pin the shared machinery's contract."""

    def test_artifact_cache_is_a_disk_store(self, cache):
        from repro.api.store import DiskStore, StoreStats

        assert isinstance(cache, DiskStore)
        # stats() counters are part of the generic store surface...
        assert isinstance(cache.stats(), StoreStats)
        # ...and the legacy attribute view stays bit-compatible.
        assert cache.stats() is cache.stats

    def test_stats_counters_cover_hit_miss_put_eviction(self, cache):
        import os

        assert cache.get(_key(1)) is None
        cache.put(_key(1), _source(1))
        cache.get(_key(1))
        for n in range(2, 8):
            cache.put(_key(n), _source(n))
            os.utime(cache._path(_key(n)), (n, n))
        stats = cache.stats()
        assert stats.misses >= 1 and stats.hits >= 1
        assert stats.puts == 7
        assert stats.evictions >= 3  # bound is 4
        assert 0.0 < stats.hit_rate < 1.0

    def test_suffixes_namespace_stores_sharing_a_directory(self, tmp_path):
        from repro.api.store import DiskStore

        py_store = DiskStore(tmp_path, header="# a", suffix=".py")
        json_store = DiskStore(tmp_path, header="# b", suffix=".json")
        py_store.put(_key(1), "# a\nx = 1\n")
        json_store.put(_key(1), "# b\n{}\n")
        assert py_store.get(_key(1)) == "# a\nx = 1\n"
        assert json_store.get(_key(1)) == "# b\n{}\n"
        assert len(py_store) == 1 and len(json_store) == 1

    def test_store_validates_construction(self, tmp_path):
        from repro.api.store import DiskStore

        with pytest.raises(ValueError):
            DiskStore(tmp_path, max_entries=0, header="# h")
        with pytest.raises(ValueError):
            DiskStore(tmp_path, header="")
        with pytest.raises(ValueError):
            DiskStore(tmp_path, header="# h", suffix="json")


class TestReadOnlyStore:
    """The read-only open mode the fleet workers use: reads hit, nothing
    on disk ever changes — no LRU mtime refresh, no writes, no eviction."""

    @pytest.fixture()
    def shared(self, tmp_path):
        from repro.api.store import DiskStore

        writer = DiskStore(tmp_path / "shared", max_entries=8, header="# h", suffix=".txt")
        for n in range(4):
            assert writer.put(_key(n), f"# h\nentry {n}\n")
        return writer

    def _reader(self, shared):
        from repro.api.store import DiskStore

        return DiskStore(
            shared.root, max_entries=8, header="# h", suffix=".txt", readonly=True
        )

    def test_reads_hit_without_touching_mtimes(self, shared):
        reader = self._reader(shared)
        path = shared._path(_key(0))
        os.utime(path, (1_000_000, 1_000_000))
        before = path.stat().st_mtime
        assert reader.get(_key(0)) == "# h\nentry 0\n"
        assert path.stat().st_mtime == before  # no LRU refresh
        assert reader.stats().hits == 1

    def test_writes_refused_silently(self, shared):
        reader = self._reader(shared)
        assert reader.put(_key(9), "# h\nnew\n") is False
        assert reader.get(_key(9)) is None
        reader.invalidate(_key(0))
        assert reader.get(_key(0)) is not None  # invalidate was a no-op
        assert reader.clear() == 0
        assert len(shared) == 4
        assert reader.stats().puts == 0 and reader.stats().errors == 0

    def test_corrupt_entry_reported_as_miss_but_left_in_place(self, shared):
        reader = self._reader(shared)
        shared._path(_key(1)).write_text("torn garbage")
        assert reader.get(_key(1)) is None
        # The writer owns the directory; a read-only handle must not
        # delete entries out from under it.
        assert shared._path(_key(1)).exists()

    def test_many_concurrent_readers_share_one_directory(self, shared):
        from concurrent.futures import ThreadPoolExecutor

        readers = [self._reader(shared) for _ in range(8)]

        def sweep(reader):
            entries = []
            for _ in range(16):
                entries.extend(reader.get(_key(n)) for n in range(4))
            return entries

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(sweep, readers))
        expected = [f"# h\nentry {n}\n" for n in range(4)] * 16
        assert all(result == expected for result in results)
        for reader in readers:
            assert reader.stats().errors == 0
            assert reader.stats().hits == 64
        assert len(shared) == 4  # nothing evicted, nothing written
