"""Micro-batch scheduler: composition, deadlines, priorities, determinism."""

import numpy as np
import pytest

from repro.core import ROWS1_NN, ROWS2_NN
from repro.core.errors import ConfigurationError
from repro.serve import MicroBatchScheduler, ServeRequest, TraceSpec, generate_trace


def _request(request_id, app="gaussian", arrival_ms=0.0, priority=0, budget=0.05, latency=None):
    return ServeRequest(
        request_id=request_id,
        app=app,
        inputs=np.zeros((4, 4)),
        error_budget=budget,
        arrival_ms=arrival_ms,
        latency_budget_ms=latency,
        priority=priority,
    )


SIZE = (16, 16)


class TestBatchComposition:
    def test_full_batch_flushes_immediately(self):
        scheduler = MicroBatchScheduler(max_batch=2, max_delay_ms=100.0)
        scheduler.submit(_request(0), ROWS1_NN, SIZE)
        assert scheduler.ready(now_ms=0.0) == []
        scheduler.submit(_request(1, arrival_ms=1.0), ROWS1_NN, SIZE)
        [batch] = scheduler.ready(now_ms=1.0)
        assert [r.request_id for r in batch.requests] == [0, 1]
        assert scheduler.pending == 0

    def test_incompatible_requests_do_not_batch(self):
        scheduler = MicroBatchScheduler(max_batch=4, max_delay_ms=0.0)
        scheduler.submit(_request(0, app="gaussian"), ROWS1_NN, SIZE)
        scheduler.submit(_request(1, app="sobel3"), ROWS1_NN, SIZE)
        scheduler.submit(_request(2, app="gaussian"), ROWS2_NN, SIZE)
        scheduler.submit(_request(3, app="gaussian"), ROWS1_NN, (32, 32))
        batches = scheduler.ready(now_ms=1000.0)
        assert sorted(len(b) for b in batches) == [1, 1, 1, 1]
        keys = {b.key for b in batches}
        assert len(keys) == 4
        # (app, config key, global size): no backend, a server has one.
        assert ("gaussian", ROWS1_NN.key, SIZE) in keys

    def test_deadline_flushes_partial_batch(self):
        scheduler = MicroBatchScheduler(max_batch=8, max_delay_ms=50.0)
        scheduler.submit(_request(0, arrival_ms=0.0), ROWS1_NN, SIZE)
        assert scheduler.ready(now_ms=49.0) == []
        [batch] = scheduler.ready(now_ms=50.0)
        assert [r.request_id for r in batch.requests] == [0]

    def test_same_label_different_work_group_does_not_batch(self):
        """The label omits the work group, but outputs depend on it."""
        scheduler = MicroBatchScheduler(max_batch=4, max_delay_ms=0.0)
        shaped = ROWS1_NN.with_work_group((8, 8))
        assert shaped.label == ROWS1_NN.label
        scheduler.submit(_request(0), ROWS1_NN, SIZE)
        scheduler.submit(_request(1), shaped, SIZE)
        batches = scheduler.ready(now_ms=0.0)
        assert len(batches) == 2
        assert {b.config.work_group for b in batches} == {(16, 16), (8, 8)}

    def test_late_poll_stamps_deadline_not_poll_time(self):
        """Sparse traces: a deadline flush is stamped with the deadline, so
        reported queue delays stay within the configured bound."""
        scheduler = MicroBatchScheduler(max_batch=8, max_delay_ms=50.0)
        scheduler.submit(_request(0, arrival_ms=0.0, latency=10.0), ROWS1_NN, SIZE)
        [batch] = scheduler.ready(now_ms=10_000.0)
        assert batch.formed_ms == 10.0
        # full-batch flushes keep the poll time (the fill instant is exact)
        scheduler2 = MicroBatchScheduler(max_batch=1, max_delay_ms=50.0)
        scheduler2.submit(_request(1, arrival_ms=3.0), ROWS1_NN, SIZE)
        [batch2] = scheduler2.ready(now_ms=3.0)
        assert batch2.formed_ms == 3.0

    def test_flush_clamps_to_expired_deadlines(self):
        scheduler = MicroBatchScheduler(max_batch=8, max_delay_ms=20.0)
        scheduler.submit(_request(0, arrival_ms=0.0), ROWS1_NN, SIZE)
        [batch] = scheduler.flush(now_ms=500.0)
        assert batch.formed_ms == 20.0

    def test_latency_budget_shortens_the_deadline(self):
        scheduler = MicroBatchScheduler(max_batch=8, max_delay_ms=50.0)
        scheduler.submit(_request(0, arrival_ms=0.0, latency=10.0), ROWS1_NN, SIZE)
        assert scheduler.ready(now_ms=9.0) == []
        [batch] = scheduler.ready(now_ms=10.0)
        assert len(batch) == 1

    def test_priority_orders_within_batch_and_overflow(self):
        scheduler = MicroBatchScheduler(max_batch=2, max_delay_ms=0.0)
        scheduler.submit(_request(0, priority=0, arrival_ms=0.0), ROWS1_NN, SIZE)
        scheduler.submit(_request(1, priority=1, arrival_ms=1.0), ROWS1_NN, SIZE)
        scheduler.submit(_request(2, priority=1, arrival_ms=2.0), ROWS1_NN, SIZE)
        batches = scheduler.ready(now_ms=5.0)
        assert [r.request_id for r in batches[0].requests] == [1, 2]
        assert [r.request_id for r in batches[1].requests] == [0]

    def test_flush_empties_every_queue(self):
        scheduler = MicroBatchScheduler(max_batch=8, max_delay_ms=1e9)
        for i in range(3):
            scheduler.submit(_request(i, app="gaussian"), ROWS1_NN, SIZE)
        scheduler.submit(_request(9, app="sobel3"), ROWS1_NN, SIZE)
        batches = scheduler.flush(now_ms=0.0)
        assert sorted(len(b) for b in batches) == [1, 3]
        assert scheduler.pending == 0

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            MicroBatchScheduler(max_batch=0)
        with pytest.raises(ConfigurationError):
            MicroBatchScheduler(max_delay_ms=-1.0)


class TestDeterminism:
    def _run(self, trace, max_batch=4, max_delay_ms=30.0):
        scheduler = MicroBatchScheduler(max_batch=max_batch, max_delay_ms=max_delay_ms)
        composition = []
        for request in sorted(trace, key=lambda r: (r.arrival_ms, r.request_id)):
            for batch in scheduler.ready(request.arrival_ms):
                composition.append((batch.key, tuple(r.request_id for r in batch.requests)))
            scheduler.submit(request, ROWS1_NN, SIZE)
        for batch in scheduler.flush(now_ms=trace[-1].arrival_ms):
            composition.append((batch.key, tuple(r.request_id for r in batch.requests)))
        return composition

    def test_same_trace_same_batches(self):
        spec = TraceSpec(requests=30, size=16, seed=99, inputs_per_app=2)
        first = self._run(generate_trace(spec))
        second = self._run(generate_trace(spec))
        assert first == second
        assert sum(len(ids) for _, ids in first) == 30

    def test_different_seed_different_trace(self):
        a = generate_trace(TraceSpec(requests=20, size=16, seed=1))
        b = generate_trace(TraceSpec(requests=20, size=16, seed=2))
        assert [r.app for r in a] != [r.app for r in b] or [
            r.arrival_ms for r in a
        ] != [r.arrival_ms for r in b]

    def test_trace_is_reproducible(self):
        spec = TraceSpec(requests=15, size=16, seed=42)
        a = generate_trace(spec)
        b = generate_trace(spec)
        assert [(r.app, r.arrival_ms, r.error_budget, r.priority) for r in a] == [
            (r.app, r.arrival_ms, r.error_budget, r.priority) for r in b
        ]
        for first, second in zip(a, b):
            if first.app == "hotspot":
                np.testing.assert_array_equal(
                    first.inputs.temperature, second.inputs.temperature
                )
            else:
                np.testing.assert_array_equal(first.inputs, second.inputs)
