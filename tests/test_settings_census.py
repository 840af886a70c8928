"""One home per setting: the census of the engine, server and tuner options.

The execution backend is chosen only where an engine (or an executor) is
built; every compiled-path method, the scheduler's batch key and the
fleet's shard key follow the engine.  The tuner takes its engine, space,
seed and database once, at construction, and its strategy and evaluation
budget per ``tune`` call.  A new option has to be added here on purpose.
"""

import inspect

import pytest

from repro.api import PerforationEngine
from repro.autotune import Tuner
from repro.fleet import ShardMap, shard_key
from repro.serve import MicroBatchScheduler, PerforationServer

#: Every parameter after ``self``, in order.
CENSUS = {
    "PerforationEngine.__init__": (PerforationEngine.__init__, ("device", "workers", "backend")),
    "PerforationServer.__init__": (
        PerforationServer.__init__,
        ("engine", "max_batch", "max_delay_ms", "calibration_inputs", "cache_capacity"),
    ),
    "Tuner.__init__": (Tuner.__init__, ("engine", "space", "seed", "db")),
    "Tuner.tune": (Tuner.tune, ("app", "inputs", "strategy", "max_evals")),
}

#: What a call is about rather than how it runs.
DATA = {"app", "inputs"}


def _parameters(function) -> tuple[str, ...]:
    return tuple(inspect.signature(function).parameters)[1:]


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_parameters_are_pinned(name):
    function, expected = CENSUS[name]
    assert _parameters(function) == expected


def test_fourteen_settable_values():
    settable = [
        parameter
        for function, _ in CENSUS.values()
        for parameter in _parameters(function)
        if parameter not in DATA
    ]
    assert len(settable) == 14


@pytest.mark.parametrize(
    "function",
    [
        PerforationEngine.executor,
        PerforationEngine.run_compiled,
        PerforationEngine.run_compiled_batch,
        PerforationEngine.compiled_sweep,
        PerforationServer.__init__,
        MicroBatchScheduler.submit,
        shard_key,
        ShardMap.for_trace,
    ],
    ids=lambda function: function.__qualname__,
)
def test_only_the_engine_takes_a_backend(function):
    assert not [p for p in inspect.signature(function).parameters if "backend" in p]


def test_tune_defaults_to_successive_halving_without_a_budget():
    from repro.autotune.strategies import resolve_strategy

    parameters = inspect.signature(Tuner.tune).parameters
    assert parameters["strategy"].default is None
    assert parameters["max_evals"].default is None
    assert resolve_strategy(None).name == "successive-halving"
