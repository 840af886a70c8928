"""Serve result cache (bounded LRU) and metrics accounting."""

import math

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.obs.metrics import RELATIVE_ACCURACY, Histogram, MetricsRegistry
from repro.serve import ServeMetrics, ServeResponse, ServeResultCache
from repro.serve.metrics import LatencySummary


class TestServeResultCache:
    def test_hit_after_put(self):
        cache = ServeResultCache(capacity=4)
        image = np.arange(9.0).reshape(3, 3)
        key = cache.key("gaussian", "Rows1:NN", image)
        assert cache.get(key) is None
        cache.put(key, np.ones((3, 3)), 0.01)
        output, error = cache.get(key)
        np.testing.assert_array_equal(output, np.ones((3, 3)))
        assert error == 0.01
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_key_distinguishes_app_config_and_content(self):
        cache = ServeResultCache()
        image = np.ones((3, 3))
        base = cache.key("gaussian", "Rows1:NN", image)
        assert cache.key("sobel3", "Rows1:NN", image) != base
        assert cache.key("gaussian", "Rows2:NN", image) != base
        assert cache.key("gaussian", "Rows1:NN", 2 * image) != base
        assert cache.key("gaussian", "Rows1:NN", image.copy()) == base

    def test_key_separates_configs_that_share_a_label(self):
        """Configurations differing only in work group share the figure label
        but not the kernel, so their served results are keyed apart."""
        from repro.core.config import ROWS1_NN

        wide, narrow = ROWS1_NN.with_work_group((16, 16)), ROWS1_NN.with_work_group((8, 8))
        assert wide.label == narrow.label
        image = np.ones((3, 3))
        assert ServeResultCache.key("gaussian", wide.key, image) != ServeResultCache.key(
            "gaussian", narrow.key, image
        )

    def test_lru_eviction_order(self):
        cache = ServeResultCache(capacity=2)
        keys = [cache.key("a", "c", np.full((2, 2), i, dtype=float)) for i in range(3)]
        cache.put(keys[0], np.zeros(1), None)
        cache.put(keys[1], np.zeros(1), None)
        assert cache.get(keys[0]) is not None  # refresh key 0
        cache.put(keys[2], np.zeros(1), None)  # evicts key 1 (LRU)
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_cached_outputs_are_read_only(self):
        cache = ServeResultCache()
        key = cache.key("a", "c", np.zeros((2, 2)))
        cache.put(key, np.zeros((2, 2)), None)
        output, _ = cache.get(key)
        with pytest.raises(ValueError):
            output[0, 0] = 1.0

    def test_unfingerprintable_inputs_bypass(self):
        cache = ServeResultCache()
        key = cache.key("a", "c", object())
        assert key is None
        assert cache.get(key) is None  # counted as a miss
        cache.put(key, np.zeros(1), None)  # no-op
        assert len(cache) == 0

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            ServeResultCache(capacity=0)


def _response(request_id=0, app="gaussian", label="Rows1:NN", error=0.01, **kw):
    defaults = dict(
        output=np.zeros(1),
        batch_size=2,
        queue_delay_ms=10.0,
        service_time_ms=5.0,
    )
    defaults.update(kw)
    return ServeResponse(
        request_id=request_id, app=app, config_label=label, error=error, **defaults
    )


class TestServeMetrics:
    def test_percentiles_nearest_rank(self):
        # The sketch reports nearest-rank percentiles within its relative
        # accuracy; the maximum is exact.
        histogram = Histogram("x")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.quantile(0.50) == pytest.approx(50.0, rel=RELATIVE_ACCURACY)
        assert histogram.quantile(0.95) == pytest.approx(95.0, rel=RELATIVE_ACCURACY)
        assert histogram.quantile(1.0) == 100.0
        assert math.isnan(Histogram("empty").quantile(0.5))
        small = Histogram("y")
        for value in (1.0, 2.0, 3.0, 4.0):
            small.observe(value)
        summary = LatencySummary.from_histogram(small)
        assert summary.p50_ms == pytest.approx(2.0, rel=RELATIVE_ACCURACY)
        assert summary.max_ms == 4.0 and summary.mean_ms == 2.5

    def test_counters_and_snapshot(self):
        metrics = ServeMetrics()
        metrics.record_batch(2)
        metrics.record_response(_response(0, error=0.01), budget=0.05)
        metrics.record_response(
            _response(1, app="sobel3", label="Accurate", error=0.0, cache_hit=True),
            budget=0.05,
        )
        metrics.record_violation()
        metrics.finish(wall_time_s=0.5)

        assert metrics.completed == 2
        assert metrics.cache_hits == 1
        assert metrics.violations == 1
        assert metrics.throughput_rps == pytest.approx(4.0)
        assert metrics.mean_batch_size == pytest.approx(2.0)
        assert metrics.worst_budget_fraction == pytest.approx(0.2)

        snapshot = metrics.deterministic_snapshot()
        assert snapshot["per_app"] == {"gaussian": 1, "sobel3": 1}
        assert snapshot["per_config"] == {"Accurate": 1, "Rows1:NN": 1}
        assert snapshot["batch_sizes"] == {2: 1}
        assert "wall" not in snapshot  # no wall-clock quantities

        text = metrics.describe()
        assert "throughput" in text and "Rows1:NN=1" in text

    def test_unmonitored_responses_have_no_error_stats(self):
        metrics = ServeMetrics()
        metrics.record_batch(1)
        metrics.record_response(_response(0, error=None), budget=0.05)
        assert metrics.deterministic_snapshot()["errors"]["count"] == 0
        assert metrics.violations == 0
        assert metrics.worst_budget_fraction == 0.0

    def test_shed_counter(self):
        metrics = ServeMetrics()
        metrics.record_shed()
        metrics.record_shed()
        assert metrics.shed == 2
        assert metrics.completed == 0  # shed requests are never completed
        assert metrics.deterministic_snapshot()["shed"] == 2
        assert "2 requests shed" in metrics.describe()

    def test_resilience_counters(self):
        import json

        metrics = ServeMetrics()
        metrics.record_failed()
        metrics.record_failed()
        metrics.worker_failures = 1
        metrics.replayed = 3
        assert metrics.failed == 2
        assert metrics.completed == 0  # failed requests are never completed
        assert metrics.deterministic_snapshot()["failed"] == 2
        assert (
            "resilience: 1 worker failures, 3 requests replayed, 2 failed"
            in metrics.describe()
        )

        data = json.loads(json.dumps(metrics.registry.to_dict()))
        rebuilt = ServeMetrics.view(MetricsRegistry.from_dict(data))
        assert rebuilt.failed == 2
        assert rebuilt.worker_failures == 1
        assert rebuilt.replayed == 3

        other = ServeMetrics()
        other.record_failed()
        other.worker_failures = 2
        other.replayed = 1
        metrics.merge(other)
        assert metrics.failed == 3
        assert metrics.worker_failures == 3
        assert metrics.replayed == 4

    def test_resilience_counters_absent_in_clean_runs(self):
        # Registries without the counters (single servers never shed, fail
        # or replay) read them as zero; clean runs omit the describe() line.
        clean = ServeMetrics.view(
            MetricsRegistry.from_dict({"serve.completed": {"type": "counter", "value": 1}})
        )
        assert clean.completed == 1
        assert clean.failed == 0
        assert clean.worker_failures == 0
        assert clean.replayed == 0
        assert "resilience" not in ServeMetrics().describe()


def _populated_metrics(offset=0, wall=0.5):
    metrics = ServeMetrics()
    metrics.record_batch(2)
    metrics.record_batch(1)
    metrics.record_response(_response(offset, error=0.01), budget=0.05)
    metrics.record_response(
        _response(offset + 1, app="sobel3", label="Accurate", error=0.0, cache_hit=True),
        budget=0.05,
    )
    metrics.record_violation()
    metrics.record_shed()
    metrics.finish(wall_time_s=wall)
    return metrics


class TestServeMetricsSerialization:
    def test_to_dict_round_trips_through_json(self):
        import json

        metrics = _populated_metrics()
        data = json.loads(json.dumps(metrics.registry.to_dict()))
        rebuilt = ServeMetrics.view(MetricsRegistry.from_dict(data))
        # The round trip is exact: same snapshot, same distributions, same wall.
        assert rebuilt.registry.to_dict() == metrics.registry.to_dict()
        assert rebuilt.deterministic_snapshot() == metrics.deterministic_snapshot()
        assert rebuilt.queue_delay_summary() == metrics.queue_delay_summary()
        assert rebuilt.service_time_summary() == metrics.service_time_summary()
        assert rebuilt.batch_sizes == metrics.batch_sizes  # int keys restored
        assert rebuilt.wall_time_s == metrics.wall_time_s
        assert rebuilt.shed == metrics.shed

    def test_from_dict_defaults_missing_fields(self):
        rebuilt = ServeMetrics.view(MetricsRegistry.from_dict({}))
        assert rebuilt.completed == 0
        assert rebuilt.wall_time_s is None
        assert rebuilt.registry.to_dict() == ServeMetrics().registry.to_dict()

    def test_merge_adds_counters_and_concatenates_distributions(self):
        left = _populated_metrics(offset=0, wall=0.5)
        right = _populated_metrics(offset=10, wall=0.8)
        right.registry.gauge("serve.worst_budget_fraction").set(0.9)
        merged = left.merge(right)
        assert merged is left  # in place, returns self
        assert merged.completed == 4
        assert merged.batches == 4
        assert merged.violations == 2  # one explicit record_violation per side
        assert merged.shed == 2
        assert merged.cache_hits == 2
        assert merged.per_app == {"gaussian": 2, "sobel3": 2}
        assert merged.batch_sizes == {2: 2, 1: 2}
        # Both sides' samples, as if one server had recorded all four.
        assert merged.queue_delay_summary().count == 4
        assert merged.service_time_summary().count == 4
        assert merged.deterministic_snapshot()["errors"]["count"] == 4
        assert merged.worst_budget_fraction == 0.9  # max, not sum
        assert merged.wall_time_s == 0.8  # concurrent processes: slowest bounds

    def test_merge_is_deterministic_in_order(self):
        parts = [_populated_metrics(offset=10 * i, wall=0.1 * (i + 1)) for i in range(3)]
        merged = ServeMetrics()
        for part in parts:
            merged.merge(part)
        again = ServeMetrics()
        for part in [_populated_metrics(offset=10 * i, wall=0.1 * (i + 1)) for i in range(3)]:
            again.merge(part)
        assert merged.registry.to_dict() == again.registry.to_dict()

    def test_merge_empty_keeps_wall_none(self):
        merged = ServeMetrics().merge(ServeMetrics())
        assert merged.wall_time_s is None
        assert merged.completed == 0
