"""No hidden disk writes: compiled runs and serving leave the disk alone.

Built kernels are cached only in the process that built them
(``repro.core.perforator.build_kernel``); the tuning database is the one
store on disk, and compiled runs and serving never open it.
"""

import tempfile

from repro.api import PerforationEngine
from repro.core import ROWS1_NN
from repro.core.perforator import build_kernel
from repro.data import generate_image
from repro.serve import PerforationServer, TraceSpec, generate_trace


def test_compiled_runs_and_a_served_trace_write_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    build_kernel.cache_clear()  # every kernel below is built cold

    engine = PerforationEngine(backend="codegen")
    images = [generate_image("natural", size=32, seed=seed) for seed in (1, 2)]
    engine.run_compiled("gaussian", images[0], ROWS1_NN)
    engine.run_compiled_batch("sobel3", images, ROWS1_NN)

    spec = TraceSpec(apps=("gaussian", "median"), requests=6, size=32, inputs_per_app=2, seed=5)
    server = PerforationServer(
        engine=engine,
        max_batch=4,
        calibration_inputs={app: images[:1] for app in spec.apps},
    )
    responses = server.run_trace(generate_trace(spec))
    assert len(responses) == spec.requests
    assert build_kernel.cache_info().currsize > 0

    assert list(tmp_path.iterdir()) == []
