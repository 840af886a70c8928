"""Routing: shard keys and planned placement."""

import dataclasses

import pytest

from repro.core.errors import ConfigurationError
from repro.fleet import ShardMap, shard_key
from repro.serve import ServeRequest, TraceSpec, generate_trace

SIX_APPS = ("gaussian", "sobel3", "sobel5", "median", "inversion", "hotspot")


def _request(app="gaussian", size=32, request_id=0, seed=1):
    from repro.data import generate_image

    return ServeRequest(
        request_id=request_id,
        app=app,
        inputs=generate_image("natural", size=size, seed=seed),
        error_budget=0.05,
    )


def _six_app_trace():
    """40 requests at 32x32 and 20 at 48x48 over all six apps: 12 keys."""
    small = generate_trace(TraceSpec(apps=SIX_APPS, requests=40, size=32, inputs_per_app=1, seed=7))
    large = generate_trace(TraceSpec(apps=SIX_APPS, requests=20, size=48, inputs_per_app=1, seed=8))
    return small + [dataclasses.replace(r, request_id=r.request_id + 100) for r in large]


class TestShardKey:
    def test_key_is_a_pure_function_of_the_request(self):
        # Same (app, size): same key, regardless of input content or request
        # identity — the config half of the scheduler's compat key is
        # controller state, reproduced inside the worker.
        a = shard_key(_request(request_id=0, seed=1))
        b = shard_key(_request(request_id=9, seed=2))
        assert a == b == ("gaussian", (32, 32))

    def test_key_separates_app_and_size(self):
        base = shard_key(_request())
        assert shard_key(_request(app="sobel3")) != base
        assert shard_key(_request(size=64)) != base


class TestShardMap:
    def test_planned_keeps_each_key_on_one_worker(self):
        counts = {
            ("gaussian", (32, 32)): 10,
            ("sobel3", (32, 32)): 5,
            ("median", (32, 32)): 5,
        }
        shard_map = ShardMap.planned(counts, workers=2)
        # LPT: the heavy key alone on one worker, the two light ones together.
        heavy = shard_map.assign(("gaussian", (32, 32)))
        light = {
            shard_map.assign(("sobel3", (32, 32))),
            shard_map.assign(("median", (32, 32))),
        }
        assert light == {1 - heavy}

    def test_planned_is_deterministic(self):
        counts = {("a%d" % n, (32, 32)): n % 5 + 1 for n in range(20)}
        first = ShardMap.planned(counts, workers=3).assignment
        second = ShardMap.planned(dict(reversed(list(counts.items()))), workers=3).assignment
        assert first == second  # pure function of counts, not dict order

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
    def test_planned_assignment_is_in_range(self, workers):
        counts = {(app, (size, size)): 1 for app in SIX_APPS for size in (32, 64, 128)}
        assignment = ShardMap.planned(counts, workers).assignment
        assert set(assignment) == set(counts)
        assert all(0 <= index < workers for index in assignment.values())
        if workers == 1:
            assert set(assignment.values()) == {0}
        else:
            # 18 unit-weight keys: LPT gives every worker some.
            assert set(assignment.values()) == set(range(workers))

    def test_unplanned_key_is_refused(self):
        shard_map = ShardMap(4, {("a", (1, 1)): 2})
        assert shard_map.assign(("a", (1, 1))) == 2
        with pytest.raises(KeyError):
            shard_map.assign(("b", (2, 2)))

    def test_for_trace_plans_every_key_of_the_trace(self):
        trace = _six_app_trace()
        shard_map = ShardMap.for_trace(trace, workers=3)
        assert set(shard_map.assignment) == {shard_key(request) for request in trace}

    def test_for_trace_placement_is_pinned(self):
        # Literal placements: a change to the shard key or to the LPT order
        # moves fleet streams, and shows here.
        trace = _six_app_trace()
        three = {
            ("gaussian", (32, 32)): 2,
            ("gaussian", (48, 48)): 0,
            ("hotspot", (32, 32)): 1,
            ("hotspot", (48, 48)): 1,
            ("inversion", (32, 32)): 2,
            ("inversion", (48, 48)): 1,
            ("median", (32, 32)): 1,
            ("median", (48, 48)): 0,
            ("sobel3", (32, 32)): 1,
            ("sobel3", (48, 48)): 0,
            ("sobel5", (32, 32)): 0,
            ("sobel5", (48, 48)): 2,
        }
        two = {
            ("gaussian", (32, 32)): 1,
            ("gaussian", (48, 48)): 1,
            ("hotspot", (32, 32)): 1,
            ("hotspot", (48, 48)): 1,
            ("inversion", (32, 32)): 0,
            ("inversion", (48, 48)): 1,
            ("median", (32, 32)): 1,
            ("median", (48, 48)): 0,
            ("sobel3", (32, 32)): 1,
            ("sobel3", (48, 48)): 0,
            ("sobel5", (32, 32)): 0,
            ("sobel5", (48, 48)): 0,
        }
        assert ShardMap.for_trace(trace, workers=3).assignment == three
        assert ShardMap.for_trace(trace, workers=2).assignment == two

    def test_for_trace_balances_request_counts(self):
        spec = TraceSpec(
            apps=("gaussian", "sobel3", "median", "inversion"),
            requests=60,
            size=32,
            inputs_per_app=2,
            seed=11,
        )
        trace = generate_trace(spec)
        shard_map = ShardMap.for_trace(trace, workers=2)
        loads = [0, 0]
        key_counts: dict = {}
        for request in trace:
            key = shard_key(request)
            key_counts[key] = key_counts.get(key, 0) + 1
            loads[shard_map.assign(key)] += 1
        assert sum(loads) == len(trace)
        assert min(loads) > 0
        # LPT guarantee: the imbalance never exceeds the heaviest single key
        # (keys are atomic — splitting one would break batching).
        assert abs(loads[0] - loads[1]) <= max(key_counts.values())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardMap(0)
        with pytest.raises(ConfigurationError):
            ShardMap(2, {("a", (1,)): 5})
        with pytest.raises(ConfigurationError):
            ShardMap.planned({}, workers=0)
