"""Every name the traced benchmark run patches still exists.

``perfbench/layers.py`` traces the program from the outside: it looks up
each ``TARGETS`` entry (module, optional owner class, attribute) and wraps
it.  A rename in the program would only surface as an import or attribute
error in ``perfbench/run.py --trace 1``; this test catches it in the
tier-1 suite instead.  It reads ``perfbench/`` and never edits it.
"""

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
