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


# ---------------------------------------------------------------------------
# The group axis: a compiled launch runs every work group side by side
# ---------------------------------------------------------------------------
#: Size of the group-axis launches: 16 work groups of (4, 4).
GROUP_AXIS_SIZE = 16
GROUP_AXIS_WORK_GROUP = (4, 4)

GROUP_VARYING_IF_AROUND_BARRIER = """
__kernel void k(__global const float* input, __global float* output,
                int width, int height) {
    __local float tile[16];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int x = get_global_id(0);
    int y = get_global_id(1);
    if ((get_group_id(0) + get_group_id(1)) % 2 == 0) {
        tile[ly * 4 + lx] = input[y * width + x];
        barrier(CLK_LOCAL_MEM_FENCE);
        output[y * width + x] = tile[ly * 4 + (lx + 1) % 4];
    } else {
        output[y * width + x] = -input[y * width + x];
    }
}
"""

GROUP_VARYING_LOOP_AND_RETURN = """
__kernel void k(__global const float* input, __global float* output,
                int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int g = get_group_id(0) + 2 * get_group_id(1);
    if (g == 5) {
        return;
    }
    float acc = 0.0f;
    for (int i = 0; i <= g; i++) {
        acc += input[y * width + (x + i) % width];
    }
    output[y * width + x] = acc;
}
"""

GROUP_VARYING_RETURN_BEFORE_BARRIER = """
__kernel void k(__global const float* input, __global float* output,
                int width, int height) {
    __local float tile[16];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (get_group_id(1) == 1) {
        output[y * width + x] = 2.0f;
        return;
    }
    tile[ly * 4 + lx] = input[y * width + x];
    barrier(CLK_LOCAL_MEM_FENCE);
    output[y * width + x] = tile[((ly + 1) % 4) * 4 + lx];
}
"""

#: A tile per group, group ids and a barrier: the paper's prefetch shape.
TILED_WITH_GROUP_IDS = """
__kernel void k(__global const float* input, __global float* output,
                int width, int height) {
    __local float tile[16];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int x = get_group_id(0) * 4 + lx;
    int y = get_group_id(1) * 4 + ly;
    tile[ly * 4 + lx] = input[y * width + x];
    barrier(CLK_LOCAL_MEM_FENCE);
    output[y * width + x] = tile[((ly + 1) % 4) * 4 + (lx + 3) % 4]
                          + (float)(get_group_id(0) - get_group_id(1));
}
"""


def _group_axis_args(seed: int):
    image = generate_image("natural", size=GROUP_AXIS_SIZE, seed=seed)
    return {
        "input": Buffer(image, "input"),
        "output": Buffer(np.zeros_like(image), "output"),
        "width": GROUP_AXIS_SIZE,
        "height": GROUP_AXIS_SIZE,
    }


def _group_axis_launches(source: str, backend: str):
    """Outputs and stats of one ``run`` and one ``run_batch`` of three."""
    from repro.kernellang.interpreter import compile_kernel

    kernel = compile_kernel(source)
    ndrange = NDRange((GROUP_AXIS_SIZE, GROUP_AXIS_SIZE), GROUP_AXIS_WORK_GROUP)
    executor = Executor(backend=backend)
    single = _group_axis_args(1)
    single_stats = executor.run(kernel, ndrange, single)
    batch = [_group_axis_args(seed) for seed in (2, 3, 4)]
    batch_stats = executor.run_batch(kernel, ndrange, batch)
    outputs = [args["output"].array for args in [single, *batch]]
    return outputs, (_stats_tuple(single_stats), _stats_tuple(batch_stats))


def _assert_group_axis_parity(source: str, *, lowers: bool):
    from repro.kernellang.codegen import LoweringError, lower_kernel
    from repro.kernellang.parser import parse_program

    if lowers:
        lower_kernel(parse_program(source), "k", GROUP_AXIS_WORK_GROUP)
    else:
        with pytest.raises(LoweringError, match="barrier"):
            lower_kernel(parse_program(source), "k", GROUP_AXIS_WORK_GROUP)
    expected, expected_stats = _group_axis_launches(source, "interpreter")
    produced, produced_stats = _group_axis_launches(source, "codegen")
    for want, got in zip(expected, produced):
        np.testing.assert_array_equal(got, want)
    assert produced_stats == expected_stats


class TestGroupAxisParity:
    """Kernels whose control flow varies between work groups: codegen runs
    the groups side by side, the interpreter one by one; outputs and
    ``ExecutionStats`` must agree through ``run`` and ``run_batch``."""

    def test_group_varying_if_around_a_barrier(self):
        # Every group is convergent, but the stacked pass is not: the
        # lowering rejects it and the launch runs on the interpreter.
        _assert_group_axis_parity(GROUP_VARYING_IF_AROUND_BARRIER, lowers=False)

    def test_group_varying_loop_trip_count_and_early_return(self):
        _assert_group_axis_parity(GROUP_VARYING_LOOP_AND_RETURN, lowers=True)

    def test_group_varying_return_before_a_barrier(self):
        _assert_group_axis_parity(GROUP_VARYING_RETURN_BEFORE_BARRIER, lowers=False)

    def test_tiled_kernel_with_group_ids(self):
        _assert_group_axis_parity(TILED_WITH_GROUP_IDS, lowers=True)

    def test_a_launch_larger_than_the_lane_cap_runs_in_several_passes(self, monkeypatch):
        from repro.kernellang import codegen

        passes = []
        real_route = codegen.route_lanes

        def counting_route(first, count, num_groups, local_size):
            passes.append(count)
            return real_route(first, count, num_groups, local_size)

        # 50 lanes hold three 16-lane groups: 16 groups take six passes
        # (the last one partial), and a batch of three straddles requests.
        monkeypatch.setattr(codegen, "MAX_PASS_LANES", 50)
        monkeypatch.setattr(codegen, "route_lanes", counting_route)
        _assert_group_axis_parity(TILED_WITH_GROUP_IDS, lowers=True)
        assert passes == [3, 3, 3, 3, 3, 1] + [3] * 16

    def test_out_of_bounds_in_a_later_group_raises(self):
        from repro.clsim import KernelExecutionError
        from repro.kernellang.interpreter import compile_kernel

        source = """
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            int i = y * width + x;
            if (get_group_id(1) == 3) {
                i = i + width * height;
            }
            output[i] = input[y * width + x];
        }
        """
        ndrange = NDRange((GROUP_AXIS_SIZE, GROUP_AXIS_SIZE), GROUP_AXIS_WORK_GROUP)
        for backend in ("interpreter", "codegen"):
            executor = Executor(backend=backend)
            with pytest.raises(KernelExecutionError, match="out of bounds"):
                executor.run(compile_kernel(source), ndrange, _group_axis_args(1))
            with pytest.raises(KernelExecutionError, match="out of bounds"):
                executor.run_batch(
                    compile_kernel(source),
                    ndrange,
                    [_group_axis_args(seed) for seed in (2, 3, 4)],
                )

    def test_local_tile_over_the_per_cu_budget_raises(self):
        """A pass of n groups allocates against n times the per-CU budget,
        so a tile that overflows one group's budget still raises."""
        from repro.clsim import LocalMemoryExceededError
        from repro.kernellang.interpreter import compile_kernel

        source = """
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            __local float tile[9000];
            int x = get_global_id(0);
            int y = get_global_id(1);
            tile[get_local_id(0)] = input[y * width + x];
            barrier(CLK_LOCAL_MEM_FENCE);
            output[y * width + x] = tile[get_local_id(0)];
        }
        """
        ndrange = NDRange((GROUP_AXIS_SIZE, GROUP_AXIS_SIZE), GROUP_AXIS_WORK_GROUP)
        for backend in ("interpreter", "codegen"):
            executor = Executor(backend=backend)
            assert 9000 * 8 > executor.device.local_mem_per_cu
            with pytest.raises(LocalMemoryExceededError):
                executor.run(compile_kernel(source), ndrange, _group_axis_args(1))
            with pytest.raises(LocalMemoryExceededError):
                executor.run_batch(
                    compile_kernel(source),
                    ndrange,
                    [_group_axis_args(seed) for seed in (2, 3, 4)],
                )
