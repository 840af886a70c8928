"""Every name the traced benchmark run patches still exists.

``perfbench/layers.py`` traces the program from the outside: it looks up
each ``TARGETS`` entry (module, optional owner class, attribute) and wraps
it.  A rename in the program would only surface as an import or attribute
error in ``perfbench/run.py --trace 1``; this test catches it in the
tier-1 suite instead.  The same goes for the calls, keywords and attributes
``perfbench/workloads.py`` uses on the program.  It reads ``perfbench/``
and never edits it.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


@pytest.mark.parametrize(
    "module_name, owner_name, attr, layer",
    layers.TARGETS,
    ids=[f"{m}:{o or ''}.{a}" for m, o, a, _ in layers.TARGETS],
)
def test_target_resolves(module_name, owner_name, attr, layer):
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else inspect.getattr_static(module, owner_name)
    inspect.getattr_static(owner, attr)  # AttributeError once renamed
    assert layer in layers.LAYERS


@pytest.mark.parametrize("counter", ["completed", "shed", "failed", "replayed"])
def test_fleet_metrics_expose_the_counters_the_traced_run_reads(counter):
    # perfbench/workloads.py reads these off PerforationFleet.metrics(),
    # a ServeMetrics view.
    from repro.serve import ServeMetrics

    assert getattr(ServeMetrics(), counter) == 0


def test_run_batch_probe_reads_the_batch_and_the_batching_flag():
    # perfbench's Executor.run_batch probe takes the batch size from the
    # call's third positional argument after ``self`` and reads
    # ``executor.backend.supports_batching`` for the batched share.
    from repro.clsim import Executor
    from repro.clsim.backends import CodegenBackend, InterpreterBackend

    params = list(inspect.signature(Executor.run_batch).parameters)
    assert params[:4] == ["self", "kernel", "ndrange", "args_batch"]
    assert CodegenBackend.supports_batching is True
    assert InterpreterBackend.supports_batching is False


def test_encode_frame_returns_the_whole_frame_as_one_bytes_object():
    # perfbench's encode_frame probe counts ``len(result)`` as wire bytes.
    import numpy as np

    from repro.fleet.protocol import FRAME_HEADER, encode_frame

    frame = encode_frame({"type": "serve", "inputs": np.zeros((4, 4))})
    assert type(frame) is bytes
    (body_length,) = FRAME_HEADER.unpack_from(frame)
    assert len(frame) == FRAME_HEADER.size + body_length


def test_decode_body_takes_the_body_as_its_first_argument():
    # perfbench's decode_body probe counts ``len(args[0])`` as wire bytes.
    from repro.fleet.protocol import FRAME_HEADER, decode_body, encode_frame

    params = list(inspect.signature(decode_body).parameters)
    assert params[0] == "body"
    body = encode_frame({"type": "hello"})[FRAME_HEADER.size :]
    assert decode_body(body) == {"type": "hello"}


# ---------------------------------------------------------------------------
# The program surface perfbench/workloads.py drives
# ---------------------------------------------------------------------------
WORKLOADS_PATH = LAYERS_PATH.parent / "workloads.py"


def _calls(callee: str) -> list[tuple[int, list[str]]]:
    """``(positional count, keyword names)`` of every call to ``callee``
    (a bare name or a method name) in ``perfbench/workloads.py``."""
    import ast

    calls = []
    for node in ast.walk(ast.parse(WORKLOADS_PATH.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == callee:
            calls.append((len(node.args), [k.arg for k in node.keywords]))
    return calls


#: What perfbench constructs or calls → keywords it is known to pass.
WORKLOAD_CALLS = {
    "PerforationServer": {"calibration_inputs"},
    "PerforationFleet": {"calibration_inputs", "max_pending", "runtime_dir"},
    "Tuner": {"seed", "db"},
    "Tuner.tune": {"strategy"},
}


@pytest.mark.parametrize("qualified", sorted(WORKLOAD_CALLS))
def test_workload_calls_bind_to_the_program(qualified):
    # Every call perfbench makes still binds: its positional arguments
    # and every keyword it passes.
    from repro.autotune import Tuner
    from repro.fleet import PerforationFleet
    from repro.serve import PerforationServer

    owners = {cls.__name__: cls for cls in (PerforationServer, PerforationFleet, Tuner)}
    owner, _, method = qualified.partition(".")
    calls = _calls(method or owner)
    assert calls, f"perfbench/workloads.py no longer calls {qualified}"
    assert WORKLOAD_CALLS[qualified] <= {k for _, names in calls for k in names}
    signature = inspect.signature(getattr(owners[owner], method or "__init__"))
    for positional, names in calls:
        signature.bind(None, *[None] * positional, **dict.fromkeys(names))


def test_workload_attributes_exist(tmp_path):
    from repro.api import PerforationEngine
    from repro.autotune import Tuner
    from repro.fleet import PerforationFleet
    from repro.serve import OnlineController, PerforationServer, ServeResponse

    source = WORKLOADS_PATH.read_text()
    for used in (
        "server.backend.name",
        "server.controller.ladder(",
        "server.controller.snapshot(",
        "fleet.backend_name",
        "tuner.engine.backend.name",
        ".config_label",
        ".cache_hit",
        ".fallback",
    ):
        assert used in source, used

    server = PerforationServer()
    assert server.backend.name == "codegen"
    assert callable(OnlineController.ladder) and callable(OnlineController.snapshot)
    fleet = PerforationFleet(runtime_dir=tmp_path / "fleet")
    try:
        assert fleet.backend_name == "codegen"
    finally:
        fleet.close()
    assert Tuner(PerforationEngine(workers=1), seed=0, db=False).engine.backend.name
    fields = {f.name for f in dataclasses.fields(ServeResponse)}
    assert {"config_label", "cache_hit", "fallback"} <= fields
