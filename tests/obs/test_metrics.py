"""Metrics registry: typed metrics, merge semantics, cache snapshots."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    RELATIVE_ACCURACY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    cache_snapshot,
)

#: Serving-sized observations: zeros (cache hits, accurate outputs) and
#: positive values from errors of 1e-6 to latencies of 1e6 ms.
SERVING_VALUES = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6))

#: Any non-negative finite double.
ANY_VALUES = st.floats(min_value=0.0, max_value=1e300)


def _histogram(values) -> Histogram:
    histogram = Histogram("x")
    for value in values:
        histogram.observe(value)
    return histogram


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class TestCounter:
    def test_inc_and_merge_add(self):
        a, b = Counter("x"), Counter("x")
        a.inc()
        a.inc(4)
        b.inc(10)
        a.merge(b)
        assert a.value == 15

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("x")
        g.set(3.5)
        g.set(1.0)
        assert g.value == 1.0

    def test_merge_keeps_maximum(self):
        a, b = Gauge("x"), Gauge("x")
        a.set(2.0)
        b.set(7.0)
        a.merge(b)
        assert a.value == 7.0


class TestHistogram:
    def test_observe_tracks_aggregates(self):
        h = Histogram("x")
        for value in (4.0, 1.0, 7.0):
            h.observe(value)
        assert h.count == 3
        assert h.sum == 12.0
        assert h.min == 1.0
        assert h.max == 7.0
        assert h.mean == 4.0

    def test_empty_histogram_is_json_safe(self):
        # No inf min/max in the wire dict when nothing was observed.
        d = Histogram("x").to_dict()
        assert "min" not in d and "max" not in d
        assert d["count"] == 0
        assert Histogram("x").mean == 0.0

    def test_merge_folds(self):
        a, b = Histogram("x"), Histogram("x")
        a.observe(2.0)
        b.observe(5.0)
        b.observe(1.0)
        a.merge(b)
        assert (a.count, a.sum, a.min, a.max) == (3, 8.0, 1.0, 5.0)

    def test_rejects_negative_and_non_finite_values(self):
        for value in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                Histogram("x").observe(value)
        with pytest.raises(ValueError):
            Histogram("x").quantile(1.5)

    def test_zeros_have_their_own_bucket(self):
        h = _histogram([0.0, 0.0, 0.0, 7.0])
        assert h.zeros == 3
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 7.0

    def test_sum_is_exact(self):
        # Float addition would lose the 1.0 next to 1e16.
        h = _histogram([1e16, 1.0, -0.0, 1.0])
        assert h.sum == 1e16 + 2.0

    def test_size_grows_with_the_range_not_the_count(self):
        rng = random.Random(3)
        h = _histogram(rng.uniform(1.0, 1000.0) for _ in range(20_000))
        gamma = (1 + RELATIVE_ACCURACY) / (1 - RELATIVE_ACCURACY)
        assert h.count == 20_000
        assert len(h.buckets) <= math.ceil(math.log(1000.0, gamma)) + 1


class TestHistogramProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(SERVING_VALUES, min_size=1, max_size=300))
    def test_quantiles_within_relative_accuracy_of_nearest_rank(self, values):
        h = _histogram(values)
        for q in (0.5, 0.95):
            exact = _nearest_rank(values, q)
            # The 1e-12 absorbs rounding in log() at a bucket's edge.
            assert math.isclose(h.quantile(q), exact, rel_tol=RELATIVE_ACCURACY + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ANY_VALUES, max_size=100), st.data())
    def test_merging_any_partition_in_any_order_is_identical(self, values, data):
        parts = data.draw(st.integers(min_value=1, max_value=5))
        owners = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=parts - 1),
                min_size=len(values),
                max_size=len(values),
            )
        )
        order = data.draw(st.permutations(range(parts)))
        histograms = [
            _histogram([v for v, owner in zip(values, owners) if owner == part])
            for part in range(parts)
        ]
        merged = Histogram("x")
        for part in order:
            merged.merge(histograms[part])
        assert merged.to_dict() == _histogram(values).to_dict()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ANY_VALUES, max_size=100))
    def test_json_round_trip_is_exact(self, values):
        registry = MetricsRegistry()
        for value in values:
            registry.histogram("x").observe(value)
        data = registry.to_dict()
        back = MetricsRegistry.from_dict(json.loads(json.dumps(data)))
        assert back.to_dict() == data
        assert back.snapshot() == registry.snapshot()


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.names() == ["a"]
        assert len(reg) == 1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_round_trip_and_merge(self):
        reg = MetricsRegistry()
        reg.counter("c", help="a count").inc(3)
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(4.0)

        other = MetricsRegistry.from_dict(reg.to_dict())
        assert other.to_dict() == reg.to_dict()

        reg.merge(other)
        assert reg.get("c").value == 6
        assert reg.get("g").value == 2.5  # max(2.5, 2.5)
        assert reg.get("h").count == 2

    def test_from_dict_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            MetricsRegistry.from_dict({"x": {"type": "mystery"}})

    def test_snapshot_is_flat(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(3.0)
        snap = reg.snapshot()
        assert snap["c"] == 2
        assert snap["h.count"] == 1
        assert snap["h.min"] == 3.0

    def test_merge_empty_histogram_keeps_values_finite_in_snapshot(self):
        reg = MetricsRegistry()
        reg.histogram("h")  # never observed
        snap = reg.snapshot()
        assert snap == {"h.count": 0, "h.sum": 0.0}


class TestCacheSnapshot:
    def test_zero_lookups_guarded(self):
        class Empty:
            hits = 0
            misses = 0

        snap = cache_snapshot(Empty())
        assert snap["hit_rate"] == 0.0
        assert snap["lookups"] == 0

    def test_every_cache_a_server_absorbs_reports_the_canonical_keys(self):
        import numpy as np

        from repro.api import PerforationEngine
        from repro.api.cache import StoreStats
        from repro.serve import PerforationServer

        engine = PerforationEngine()
        server = PerforationServer(engine=engine)
        stores = {
            "serve.result_cache": server.cache,
            "engine.reference_cache": engine.references,
            "engine.timing_cache": engine.timings,
        }
        for store in stores.values():
            assert type(store.stats) is StoreStats
        server.cache.put(server.cache.key("a", "c", np.zeros(2)), np.zeros(2), 0.0)
        engine.references.get("missing")

        snap = server.observability().snapshot()
        fields = ("hits", "misses", "evictions", "puts", "errors", "hit_rate")
        for prefix in [*stores, "kernel.build_cache"]:
            assert {f"{prefix}.{field}" for field in fields} <= set(snap), prefix
        # Built kernels are cached only in process, as kernel.build_cache.
        assert not [name for name in snap if name.startswith("codegen.")]
        assert snap["serve.result_cache.puts"] == 1
        assert snap["engine.reference_cache.misses"] == 1

    def test_absorb_cache_prefixes_metrics(self):
        from repro.api.cache import StoreStats

        reg = MetricsRegistry()
        reg.absorb_cache("serve.result_cache", StoreStats(hits=4, misses=1))
        assert reg.get("serve.result_cache.hits").value == 4
        assert reg.get("serve.result_cache.misses").value == 1
        assert reg.get("serve.result_cache.hit_rate").value == pytest.approx(0.8)


class TestCollectors:
    def test_collector_appears_in_exposition_until_collected(self):
        class Owner:
            def observability(self) -> MetricsRegistry:
                reg = MetricsRegistry()
                reg.counter("owner.pings").inc(9)
                return reg

        owner = Owner()
        obs_metrics.register_collector(owner.observability)
        text = obs_metrics.exposition()
        assert "owner_pings 9" in text

        del owner
        text = obs_metrics.exposition()
        assert "owner_pings" not in text

    def test_plain_function_collector_is_held(self):
        def collect() -> MetricsRegistry:
            reg = MetricsRegistry()
            reg.counter("fn.calls").inc(1)
            return reg

        obs_metrics.register_collector(collect)
        assert "fn_calls 1" in obs_metrics.exposition()

    def test_failing_collector_is_skipped(self):
        def bad() -> MetricsRegistry:
            raise RuntimeError("nope")

        obs_metrics.register_collector(bad)
        obs_metrics.exposition()  # must not raise
