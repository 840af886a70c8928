"""One home per setting: the census of the engine, server and tuner
options, of the fleet's options and worker spec, and of the environment
variables the library reads.

The execution backend is chosen only where an engine (or an executor) is
built; every compiled-path method, the scheduler's batch key and the
fleet's shard key follow the engine.  The tuner takes its engine, space,
seed and database once, at construction, and its strategy and evaluation
budget per ``tune`` call.  Four ``REPRO_*`` variables reach the library,
and the three that switch something off share one spelling of "off".
Applications, device profiles and backends resolve through plain dicts of
their built-in instances, with no ``register_*`` hook.  The fleet's
options are counted apart from the engine's, server's and tuner's.  A new
option, variable or hook has to be added here on purpose.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
import repro.apps
import repro.clsim
import repro.core.schemes
from repro.api import PerforationEngine
from repro.apps import available_applications, get_application
from repro.autotune import Tuner
from repro.clsim import available_backends, available_devices
from repro.fleet import PerforationFleet, ShardMap, WorkerSpec, shard_key
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


# ---------------------------------------------------------------------------
# The fleet
# ---------------------------------------------------------------------------
#: Every ``PerforationFleet`` parameter after ``self``, in order.
#: ``runtime_dir`` is accepted and ignored: workers are reached over socket
#: pairs, and perfbench's fleet workload still passes the keyword.
FLEET_PARAMETERS = (
    "workers",
    "backend",
    "device",
    "max_batch",
    "max_delay_ms",
    "calibration_inputs",
    "max_pending",
    "cache_capacity",
    "runtime_dir",
    "request_timeout_s",
    "max_respawns",
    "fail_after",
    "error_on",
    "hang_on",
    "chaos_persistent",
)

#: Every field a worker process is started with, in order.
WORKER_SPEC_FIELDS = (
    "index",
    "backend",
    "device",
    "max_batch",
    "max_delay_ms",
    "ladders",
    "cache_capacity",
    "trace",
    "generation",
    "fail_after",
    "error_on",
    "hang_on",
)


def test_fifteen_fleet_parameters():
    assert _parameters(PerforationFleet.__init__) == FLEET_PARAMETERS
    assert len(FLEET_PARAMETERS) == 15


def test_twelve_worker_spec_fields():
    assert tuple(f.name for f in dataclasses.fields(WorkerSpec)) == WORKER_SPEC_FIELDS
    assert len(WORKER_SPEC_FIELDS) == 12


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


# ---------------------------------------------------------------------------
# Name tables
# ---------------------------------------------------------------------------
#: The built-in applications, sorted.
APPLICATIONS = ["gaussian", "hotspot", "inversion", "median", "sobel3", "sobel5"]


def test_tables_hold_the_builtins():
    assert available_applications() == APPLICATIONS
    assert available_devices() == ["firepro-w5100", "generic-hbm", "low-bandwidth-igpu"]
    assert available_backends() == ["codegen", "interpreter"]


@pytest.mark.parametrize("name", APPLICATIONS)
def test_applications_are_shared_instances(name):
    assert get_application(name) is get_application(name)


@pytest.mark.parametrize("module", [repro.apps, repro.clsim, repro.core.schemes])
def test_no_register_hooks(module):
    assert not [name for name in vars(module) if name.startswith("register")]


# ---------------------------------------------------------------------------
# Environment variables
# ---------------------------------------------------------------------------
#: Every ``REPRO_*`` variable the library reads.
ENVIRONMENT = {"REPRO_TRACE", "REPRO_METRICS", "REPRO_TUNING_DB", "REPRO_TUNING_DB_MAX"}


def _environment_variables_named() -> set[str]:
    """Every string constant in ``src/repro`` that is a ``REPRO_*`` name."""
    names = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)
            ):
                names.add(node.value)
    return names


def test_four_environment_variables():
    assert _environment_variables_named() == ENVIRONMENT


@pytest.mark.parametrize("value", ["", "0", "OFF", "none", " Disable ", "disabled"])
def test_one_spelling_of_off(value, tmp_path, monkeypatch):
    from repro.autotune import default_db
    from repro.obs import metrics, trace

    monkeypatch.chdir(tmp_path)
    for variable in ("REPRO_TRACE", "REPRO_METRICS", "REPRO_TUNING_DB"):
        monkeypatch.setenv(variable, value)
    monkeypatch.setattr(metrics, "_env_export_registered", False)
    assert trace.env_trace_path() is None
    metrics._maybe_register_env_export()
    assert metrics._env_export_registered is False
    assert default_db() is None
    assert list(tmp_path.iterdir()) == []
