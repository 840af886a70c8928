"""Cross-backend conformance suite.

The compiled execution backend (``codegen``) must be observationally
identical to the reference interpreter backend: bit-for-bit equal outputs
*and* exactly equal :class:`~repro.clsim.executor.ExecutionStats` access
counters, across the full matrix of applications x perforation schemes x
reconstruction modes the compiler path supports.  Any drift between the
backends fails this suite (CI runs it on every push).

The matrix runs on small inputs so the interpreter side stays cheap; the
compiled backend is exercised on paper-scale inputs by the benchmarks.
"""

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.apps import get_application
from repro.clsim import Buffer, Executor, NDRange
from repro.core import (
    ApproximationConfig,
    LINEAR_INTERPOLATION,
    NEAREST_NEIGHBOR,
)
from repro.core.schemes import RowPerforation, StencilPerforation
from repro.data import generate_image, hotspot_single

#: Work-group shape of the conformance runs (tiles the 16x16 inputs).
WORK_GROUP = (8, 8)

#: The compiled backends checked against the reference interpreter.
COMPILED_BACKENDS = ("codegen",)

APP_NAMES = ("gaussian", "inversion", "sobel3", "sobel5", "median", "hotspot")

SCHEMES = {
    "rows1": RowPerforation(step=2),
    "rows2": RowPerforation(step=4),
    "stencil": StencilPerforation(),
}

TECHNIQUES = {
    "nn": NEAREST_NEIGHBOR,
    "li": LINEAR_INTERPOLATION,
}


def _inputs_for(app_name: str):
    if app_name == "hotspot":
        return hotspot_single(size=16, seed=21)
    return generate_image("natural", size=16, seed=7)


def _configs_for(app):
    """The scheme x technique matrix admissible for ``app``."""
    configs = [ApproximationConfig(work_group=WORK_GROUP)]  # accurate baseline
    for scheme_name, scheme in SCHEMES.items():
        if scheme.requires_halo() and app.halo == 0:
            continue  # stencil perforation needs a halo (e.g. not Inversion)
        for technique in TECHNIQUES.values():
            configs.append(
                ApproximationConfig(
                    scheme=scheme, reconstruction=technique, work_group=WORK_GROUP
                )
            )
    return configs


def _stats_tuple(stats):
    return (
        stats.work_items,
        stats.work_groups,
        stats.barriers,
        stats.global_counters.reads,
        stats.global_counters.writes,
        stats.local_counters.reads,
        stats.local_counters.writes,
        stats.private_counters.reads,
        stats.private_counters.writes,
    )


@pytest.fixture(scope="module")
def engine():
    return PerforationEngine()


#: Interpreter reference runs memoized per (app, config), so the matrix
#: interprets each configuration once.
_REFERENCE_MEMO: dict = {}


def _reference(engine, app, inputs, config, app_name):
    key = (app_name, config.label)
    cached = _REFERENCE_MEMO.get(key)
    if cached is None:
        cached = _REFERENCE_MEMO[key] = engine.run_compiled(
            app, inputs, config, backend="interpreter", with_stats=True
        )
    return cached


class TestBackendParity:
    """Compiled backends == interpreter, bit for bit, across the matrix."""

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_outputs_and_stats_identical(self, engine, app_name, backend):
        app = get_application(app_name)
        inputs = _inputs_for(app_name)
        for config in _configs_for(app):
            reference, ref_stats = _reference(engine, app, inputs, config, app_name)
            produced, got_stats = engine.run_compiled(
                app, inputs, config, backend=backend, with_stats=True
            )
            label = f"{app_name}/{config.label}/{backend}"
            np.testing.assert_array_equal(
                produced, reference, err_msg=f"output drift for {label}"
            )
            assert _stats_tuple(got_stats) == _stats_tuple(ref_stats), (
                f"ExecutionStats drift for {label}: "
                f"{_stats_tuple(got_stats)} != {_stats_tuple(ref_stats)}"
            )

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    @pytest.mark.parametrize("app_name", ["gaussian", "inversion"])
    def test_matches_numpy_fast_path(self, engine, app_name, backend):
        """All backends implement the same approximation as the NumPy
        sampler fast path (the row schemes are reconciled exactly)."""
        app = get_application(app_name)
        image = generate_image("natural", size=16, seed=7)
        config = ApproximationConfig(
            scheme=RowPerforation(step=2),
            reconstruction=NEAREST_NEIGHBOR,
            work_group=WORK_GROUP,
        )
        fast_path = app.approximate(image, config)
        produced = engine.run_compiled(app, image, config, backend=backend)
        np.testing.assert_array_equal(produced, fast_path)

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    def test_helper_function_with_pointer_argument(self, backend):
        """Helper functions taking buffer pointers work on every backend."""
        from repro.kernellang.interpreter import compile_kernel

        source = """
        float fetch(__global const float* buf, int index) {
            return buf[index] * 2.0f;
        }

        __kernel void doubled(__global const float* input,
                              __global float* output,
                              int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            output[y * width + x] = fetch(input, y * width + x);
        }
        """
        image = generate_image("natural", size=8, seed=1)
        outputs = {}
        for run_backend in ("interpreter", backend):
            inb = Buffer(image, "input")
            outb = Buffer(np.zeros_like(image), "output")
            Executor(backend=run_backend).run(
                compile_kernel(source),
                NDRange((8, 8), (4, 4)),
                {"input": inb, "output": outb, "width": 8, "height": 8},
            )
            outputs[run_backend] = outb.array
        np.testing.assert_array_equal(outputs[backend], outputs["interpreter"])
        np.testing.assert_array_equal(outputs[backend], image * 2.0)

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    def test_larger_image_and_uneven_tiling(self, engine, backend):
        """Parity holds when the halo spans several group boundaries."""
        app = get_application("sobel5")
        image = generate_image("pattern", size=32, seed=9)
        config = ApproximationConfig(
            scheme=RowPerforation(step=4),
            reconstruction=LINEAR_INTERPOLATION,
            work_group=(16, 4),
        )
        a, sa = engine.run_compiled(
            app, image, config, backend="interpreter", with_stats=True
        )
        b, sb = engine.run_compiled(
            app, image, config, backend=backend, with_stats=True
        )
        np.testing.assert_array_equal(a, b)
        assert _stats_tuple(sa) == _stats_tuple(sb)
