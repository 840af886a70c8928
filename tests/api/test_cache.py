"""The one in-memory LRU (`LRUCache`) and the engine's reference and timing stores."""

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.api import engine as engine_module
from repro.api.cache import LRUCache, StoreStats
from repro.apps import GaussianApp
from repro.core import ROWS1_NN, ROWS2_NN


class Opaque:
    """An input `input_token` cannot fingerprint (keyed by identity)."""


class StubGaussian(GaussianApp):
    """Gaussian whose reference is a counted constant, for any input."""

    def __init__(self):
        super().__init__()
        self.reference_calls = 0

    def reference(self, inputs):
        self.reference_calls += 1
        return np.zeros((2, 2))


class FailingGaussian(GaussianApp):
    def reference(self, inputs):
        raise RuntimeError("reference failed")


def _raise():
    raise RuntimeError("compute failed")


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


class TestLRUCache:
    def test_eviction_order_and_refresh_on_hit(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b, the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_get_or_compute_hit_refreshes_too(self):
        cache = LRUCache(2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        assert cache.get_or_compute("a", lambda: -1) == 1  # hit refreshes a
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert cache.get_or_compute("a", lambda: -1) == 1
        assert cache.get_or_compute("b", lambda: 20) == 20  # recomputed

    def test_get_and_put_counters(self):
        cache = LRUCache(1)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        cache.put("b", 2)  # evicts a
        assert cache.stats == StoreStats(hits=1, misses=1, puts=2, evictions=1)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_get_or_compute_counters(self):
        cache = LRUCache(1)
        calls = []
        for key in ("a", "a", "b", "a"):
            cache.get_or_compute(key, lambda key=key: calls.append(key) or key.upper())
        assert calls == ["a", "b", "a"]
        assert cache.stats == StoreStats(hits=1, misses=3, puts=3, evictions=2)

    def test_clear_drops_entries_and_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == StoreStats()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestSingleFlight:
    def test_concurrent_misses_on_one_key_compute_once(self):
        cache = LRUCache(4)
        started, release = threading.Event(), threading.Event()
        calls = []

        def compute():
            calls.append(threading.get_ident())
            started.set()
            assert release.wait(timeout=10)
            return object()

        results = []

        def call():
            results.append(cache.get_or_compute("k", compute))

        threads = [threading.Thread(target=call, daemon=True) for _ in range(8)]
        threads[0].start()
        assert started.wait(timeout=10)
        for thread in threads[1:]:
            thread.start()
        # Every follower has found the key in flight (and counted a hit).
        _wait_until(lambda: cache.stats.hits == 7)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(calls) == 1
        assert len(results) == 8 and all(r is results[0] for r in results)
        assert cache.stats == StoreStats(hits=7, misses=1, puts=1)

    def test_slow_compute_does_not_block_another_key(self):
        cache = LRUCache(4)
        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            assert release.wait(timeout=10)
            return "slow"

        thread = threading.Thread(target=cache.get_or_compute, args=("slow", slow), daemon=True)
        thread.start()
        try:
            assert started.wait(timeout=10)
            assert cache.get_or_compute("fast", lambda: "fast") == "fast"
            assert cache.get("fast") == "fast"
            assert cache.get("slow") is None  # still in flight
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert cache.get("slow") == "slow"

    def test_waiters_share_a_failure(self):
        cache = LRUCache(4)
        started, release = threading.Event(), threading.Event()

        def failing():
            started.set()
            assert release.wait(timeout=10)
            raise RuntimeError("boom")

        errors = []

        def call():
            try:
                cache.get_or_compute("k", failing)
            except RuntimeError as exc:
                errors.append(exc)

        leader = threading.Thread(target=call, daemon=True)
        leader.start()
        assert started.wait(timeout=10)
        follower = threading.Thread(target=call, daemon=True)
        follower.start()
        _wait_until(lambda: cache.stats.hits == 1)
        release.set()
        leader.join(timeout=10)
        follower.join(timeout=10)
        assert not leader.is_alive() and not follower.is_alive()
        assert len(errors) == 2
        assert len(cache) == 0 and not cache._inflight

    def test_stress_keeps_the_counters_and_the_bound_consistent(self):
        """More threads than cores racing on few keys: no update is lost."""
        cache = LRUCache(3)
        lookups_per_thread = 400
        computed, put = [], []  # list.append is atomic

        def work(seed):
            for n in range(lookups_per_thread):
                key = (seed * 7 + n) % 5
                if n % 3:
                    cache.get_or_compute(key, lambda key=key: computed.append(key) or key)
                elif cache.get(key) is None:
                    put.append(key)
                    cache.put(key, key)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        stats = cache.stats
        assert stats.hits + stats.misses == 8 * lookups_per_thread
        assert stats.puts == len(computed) + len(put)
        assert stats.evictions <= stats.puts and len(cache) <= 3
        assert not cache._inflight


class TestFailureLeavesNoState:
    def test_raising_computations_store_nothing(self):
        cache = LRUCache(4)
        for n in range(10):
            with pytest.raises(RuntimeError):
                cache.get_or_compute(n, _raise)
        assert len(cache) == 0
        assert not cache._inflight
        assert cache.stats.puts == 0

    def test_failed_references_leave_no_entry_lock_or_pin(self):
        engine = PerforationEngine()
        app = FailingGaussian()
        opaque = [Opaque() for _ in range(5)]
        alive = [weakref.ref(obj) for obj in opaque]
        inputs = [np.full((4, 4), n, dtype=float) for n in range(5)] + opaque
        for item in inputs:
            with pytest.raises(RuntimeError):
                engine.reference(app, item)
        del inputs, opaque, item
        gc.collect()
        assert [ref() for ref in alive] == [None] * 5  # nothing pinned
        assert len(engine.references) == 0
        assert not engine.references._inflight


class TestEngineStores:
    def test_identity_keyed_input_lives_exactly_while_cached(self, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_REFERENCES", 1)
        engine = PerforationEngine()
        app = StubGaussian()
        opaque = Opaque()
        alive = weakref.ref(opaque)
        engine.reference(app, opaque)
        engine.reference(app, opaque)  # same identity: a hit
        assert app.reference_calls == 1
        del opaque
        gc.collect()
        assert alive() is not None  # pinned by its cached entry
        engine.reference(app, np.zeros((2, 2)))  # evicts the identity entry
        gc.collect()
        assert alive() is None

    def test_references_are_read_only(self):
        engine = PerforationEngine()
        reference = engine.reference(StubGaussian(), np.ones((2, 2)))
        with pytest.raises(ValueError):
            reference[0, 0] = 1.0

    def test_reference_bound_is_the_module_constant(self, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_REFERENCES", 2)
        engine = PerforationEngine()
        app = StubGaussian()
        images = [np.full((2, 2), n, dtype=float) for n in range(3)]
        for image in images:
            engine.reference(app, image)
        assert engine.references.stats.evictions == 1
        engine.reference(app, images[0])  # evicted: recomputed
        assert app.reference_calls == 4
        assert len(engine.references) == 2

    def test_timing_bound_is_the_module_constant(self, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_TIMINGS", 1)
        engine = PerforationEngine()
        engine.timing("gaussian", ROWS1_NN, (64, 64))
        engine.timing("gaussian", ROWS2_NN, (64, 64))
        engine.timing("gaussian", ROWS1_NN, (64, 64))
        assert engine.timings.stats == StoreStats(misses=3, puts=3, evictions=2)

    def test_default_bounds(self):
        engine = PerforationEngine()
        assert engine.references.capacity == engine_module.MAX_REFERENCES == 32
        assert engine.timings.capacity == engine_module.MAX_TIMINGS == 4096

