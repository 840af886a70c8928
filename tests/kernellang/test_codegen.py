"""Lowering-level tests of the codegen backend.

The cross-backend conformance suite (``tests/clsim/test_backend_parity.py``)
pins outputs/stats over the bundled applications; this module tests the
*lowering* itself: uniformity specialization, the masked control-flow
emission on adversarial kernels, the interpreter fallback for programs the
lowering cannot specialize, and the determinism/memoization contract.
"""

import numpy as np
import pytest

from repro.clsim import Buffer, Executor, Kernel, KernelExecutionError, NDRange
from repro.clsim.backends import CodegenBackend
from repro.core import ROWS2_NN
from repro.core.perforator import build_kernel
from repro.data import generate_image
from repro.kernellang import codegen
from repro.kernellang.codegen import LoweringError, lower_kernel
from repro.kernellang.interpreter import compile_kernel
from repro.kernellang.parser import parse_program


def _run(source: str, backend: str, size: int = 8, work_group=(4, 4)):
    """Run a 2-arg image kernel and return (output, stats-tuple)."""
    image = generate_image("natural", size=size, seed=11)
    inb = Buffer(image, "input")
    outb = Buffer(np.zeros_like(image), "output")
    stats = Executor(backend=backend).run(
        compile_kernel(source),
        NDRange((size, size), work_group),
        {"input": inb, "output": outb, "width": size, "height": size},
    )
    return outb.array, (
        stats.barriers,
        stats.global_counters.reads,
        stats.global_counters.writes,
        stats.local_counters.reads,
        stats.local_counters.writes,
    )


def _assert_backend_parity(source: str, **kwargs):
    reference, ref_stats = _run(source, "interpreter", **kwargs)
    produced, got_stats = _run(source, "codegen", **kwargs)
    np.testing.assert_array_equal(produced, reference)
    assert got_stats == ref_stats


class TestUniformSpecialization:
    def test_straight_line_kernel_lowers_masklessly(self):
        """Uniform-trip-count loops become Python loops: no mask algebra."""
        from repro.apps import get_application

        pk = get_application("gaussian").perforator().accurate()
        source = lower_kernel(pk.program, pk.kernel_def.name, (8, 8), False)
        assert "while True:" in source  # the dy/dx loops, Python-style
        assert "_amask" not in source
        assert "_decl_scalar" not in source
        assert "_merge_parts" not in source

    def test_local_size_is_baked_in(self):
        source = """
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            output[y * width + x] = input[y * width + x] * (float)(get_local_size(0));
        }
        """
        program = parse_program(source)
        lowered = lower_kernel(program, "k", (4, 4), False)
        assert "lsz" not in lowered  # folded to the literal 4
        _assert_backend_parity(source)

    def test_lowering_is_deterministic(self):
        from repro.apps import get_application

        pk = get_application("sobel3").perforator().accurate()
        first = lower_kernel(pk.program, pk.kernel_def.name, (8, 8), False)
        second = lower_kernel(pk.program, pk.kernel_def.name, (8, 8), False)
        assert first == second

    def test_function_memo_shared_by_content(self):
        """Equal (source, config) builds one kernel and one compiled function."""
        source = """
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            output[y * width + x] = input[y * width + x];
        }
        """
        config = ROWS2_NN.with_work_group((4, 4))
        a = build_kernel(source, config)
        # An equal but distinct source string and config object.
        b = build_kernel(source.encode().decode(), ROWS2_NN.with_work_group((4, 4)))
        assert a is b
        first = codegen.codegen_kernel(a).function((4, 4), False)
        assert codegen.codegen_kernel(b).function((4, 4), False) is first


class TestDivergentControlFlow:
    """Adversarial divergent kernels: codegen == interpreter, bit for bit."""

    def test_divergent_data_dependent_while(self):
        _assert_backend_parity("""
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            float v = input[y * width + x];
            int n = 0;
            while (v > 0.1f && n < 20) {
                v = v * 0.5f;
                n = n + 1;
            }
            output[y * width + x] = v + (float)(n);
        }
        """)

    def test_divergent_break_continue_in_nested_loops(self):
        _assert_backend_parity("""
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            float acc = 0.0f;
            for (int i = 0; i < 8; i++) {
                if (i > x) { break; }
                for (int j = 0; j < 8; j++) {
                    if (j == y) { continue; }
                    if (j > 5) { break; }
                    acc += input[(i * width + j) % (width * height)];
                }
            }
            output[y * width + x] = acc;
        }
        """)

    def test_divergent_do_while(self):
        _assert_backend_parity("""
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            int i = 0;
            float v = 0.0f;
            do {
                v += input[y * width + ((x + i) % width)];
                i++;
            } while (i <= x);
            output[y * width + x] = v;
        }
        """)

    def test_varying_ternary_and_logical_ops(self):
        _assert_backend_parity("""
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            float v = input[y * width + x];
            float w = (x > 2 && y < 3) ? v * 2.0f : ((x == 0 || y == 0) ? -v : v);
            output[y * width + x] = w;
        }
        """)

    def test_declaration_after_divergent_early_return(self):
        """The ubiquitous guard idiom: lanes return, then fresh variables
        are declared under the merged (divergent) mask."""
        _assert_backend_parity("""
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            output[y * width + x] = -1.0f;
            if (x > 5) {
                return;
            }
            float acc = input[y * width + x];
            int scaled = x * 2;
            output[y * width + x] = acc + (float)(scaled);
        }
        """)

    def test_masked_kill_inside_uniform_branch(self):
        """A uniform if whose body contains a varying return: the merged
        mask must stay defined on the fall-through path."""
        _assert_backend_parity("""
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            output[y * width + x] = -2.0f;
            if (width > 4) {
                if (x + y > 6) {
                    return;
                }
            }
            float v = input[y * width + x];
            output[y * width + x] = v;
        }
        """)

    def test_divergent_return(self):
        _assert_backend_parity("""
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            output[y * width + x] = 1.0f;
            if (x + y > 4) {
                return;
            }
            output[y * width + x] = input[y * width + x];
        }
        """)

    def test_simple_helper_with_local_called_in_divergent_branch(self):
        """A straight-line helper declaring a local, inlined under a
        divergent mask: its declaration must be pre-bound like any other
        divergent declaration."""
        _assert_backend_parity("""
        float helper(float a) {
            float t = a * 2.0f;
            return t + 1.0f;
        }

        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            output[y * width + x] = 0.0f;
            if (x < 2) {
                output[y * width + x] = helper(input[y * width + x]);
            }
        }
        """)

    def test_nested_unary_kernels_do_not_share_artifacts(self):
        """-(-v) and --v must produce distinct canonical sources (and so
        distinct artifact keys): regression for the clgen parenthesization
        collision that made one kernel execute the other's artifact."""
        from repro.kernellang.clgen import generate

        double_neg = parse_program("""
        __kernel void k(__global float* output, int width, int height) {
            int x = get_global_id(0);
            float v = (float)(x) - 1.0f;
            output[x] = -(-v);
        }
        """)
        predecrement = parse_program("""
        __kernel void k(__global float* output, int width, int height) {
            int x = get_global_id(0);
            float v = (float)(x) - 1.0f;
            output[x] = --v;
        }
        """)
        assert generate(double_neg) != generate(predecrement)
        source_a = """
        __kernel void k(__global float* output, int width, int height) {
            int x = get_global_id(0);
            float v = (float)(x) - 1.0f;
            output[x] = -(-v);
        }
        """
        source_b = source_a.replace("-(-v)", "--v")
        for source in (source_a, source_b):
            image_shape = (1, 8)
            import numpy as np

            outs = {}
            for backend in ("interpreter", "codegen"):
                outb = Buffer(np.zeros(image_shape), "output")
                Executor(backend=backend).run(
                    compile_kernel(source),
                    NDRange((8, 1), (4, 1)),
                    {"output": outb, "width": 8, "height": 1},
                )
                outs[backend] = outb.array.copy()
            np.testing.assert_array_equal(outs["codegen"], outs["interpreter"])

    def test_helper_with_control_flow_is_inlined_masked(self):
        _assert_backend_parity("""
        float pick(float a, float b, int flag) {
            if (flag > 0) {
                return a;
            }
            return b;
        }

        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            float v = input[y * width + x];
            output[y * width + x] = pick(v, -v, x - y);
        }
        """)

    def test_private_array_with_init_list(self):
        _assert_backend_parity("""
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            float taps[3] = {0.25f, 0.5f, 0.25f};
            float acc = 0.0f;
            for (int i = 0; i < 3; i++) {
                int xx = clamp(x + i - 1, 0, width - 1);
                acc += input[y * width + xx] * taps[i];
            }
            output[y * width + x] = acc;
        }
        """)

    def test_divergent_local_memory_and_barrier(self):
        _assert_backend_parity("""
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            __local float tile[16];
            int x = get_global_id(0);
            int y = get_global_id(1);
            int lx = get_local_id(0);
            int ly = get_local_id(1);
            if (ly % 2 == 0) {
                tile[ly * 4 + lx] = input[y * width + x];
            } else {
                tile[ly * 4 + lx] = 0.0f;
            }
            barrier(CLK_LOCAL_MEM_FENCE);
            output[y * width + x] = tile[((ly + 1) % 4) * 4 + lx];
        }
        """)


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


class TestFallbackAndLimits:
    def test_unlowerable_kernel_runs_on_the_interpreter(self, monkeypatch):
        """A non-literal get_global_id dimension defeats the lowering; the
        backend then runs the launch on the interpreter, deciding so once
        per launch rather than once per work group."""
        source = """
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int d = height > 0 ? 0 : 1;
            int x = get_global_id(d);
            int y = get_global_id(1);
            output[y * width + x] = input[y * width + x];
        }
        """
        with pytest.raises(LoweringError):
            lower_kernel(parse_program(source), "k", (8, 8), False)

        lowered = []
        real_lower = codegen.lower_kernel

        def counting_lower(program, kernel_name=None, local_size=(1,), batched=False):
            lowered.append((tuple(local_size), batched))
            return real_lower(program, kernel_name, local_size, batched)

        monkeypatch.setattr(codegen, "lower_kernel", counting_lower)

        size = 64
        ndrange = NDRange((size, size), (8, 8))
        images = [generate_image("natural", size=size, seed=seed) for seed in (1, 2, 3)]

        def args(image):
            return {
                "input": Buffer(image, "input"),
                "output": Buffer(np.zeros_like(image), "output"),
                "width": size,
                "height": size,
            }

        kernel = compile_kernel(source)
        expected = []
        for image in images:
            bound = args(image)
            stats = Executor(backend="interpreter").run(kernel, ndrange, bound)
            expected.append((bound["output"].array, _stats_tuple(stats)))
        assert lowered == []

        bound = args(images[0])
        stats = Executor(backend="codegen").run(kernel, ndrange, bound)
        np.testing.assert_array_equal(bound["output"].array, expected[0][0])
        assert _stats_tuple(stats) == expected[0][1]
        assert lowered == [((8, 8), False)]  # 64 work groups, one lowering

        lowered.clear()
        batch = [args(image) for image in images]
        stats = Executor(backend="codegen").run_batch(kernel, ndrange, batch)
        for bound, (output, _) in zip(batch, expected):
            np.testing.assert_array_equal(bound["output"].array, output)
        summed = tuple(sum(values) for values in zip(*(s for _, s in expected)))
        assert _stats_tuple(stats) == summed
        assert lowered == [((8, 8), True)]

    def test_python_body_kernels_are_rejected(self):
        def body(ctx, wi):
            ctx.buffer("output").write((wi.gid(1), wi.gid(0)), 1.0)

        kernel = Kernel("handwritten", body, ["output"])
        out = Buffer(np.zeros((4, 4), dtype=np.float64), "output")
        with pytest.raises(KernelExecutionError, match="no kernellang AST"):
            Executor(backend="codegen").run(
                kernel, NDRange((4, 4), (4, 4)), {"output": out}
            )

    def test_balanced_divergent_barriers_are_rejected(self):
        """Known, documented divergence from the interpreter: the lock-step
        interpreter only counts barriers per work-item and accepts balanced
        divergent barriers; the codegen backend requires all lanes at the
        same barrier statement and fails loudly instead of drifting."""
        from repro.clsim import BarrierDivergenceError

        source = """
        __kernel void balanced(__global float* output, int width, int height) {
            int x = get_global_id(0);
            if (x < 2) {
                barrier(CLK_LOCAL_MEM_FENCE);
            } else {
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            output[get_global_id(1) * width + x] = 1.0f;
        }
        """
        args = {
            "output": Buffer(np.zeros((4, 4), dtype=np.float64), "output"),
            "width": 4,
            "height": 4,
        }
        ndrange = NDRange((4, 4), (4, 4))
        stats = Executor(backend="interpreter").run(compile_kernel(source), ndrange, args)
        assert stats.barriers == 1
        with pytest.raises(BarrierDivergenceError):
            Executor(backend="codegen").run(compile_kernel(source), ndrange, args)

    def test_divergent_return_before_barrier_raises(self):
        from repro.clsim import BarrierDivergenceError

        source = """
        __kernel void diverge(__global float* output, int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            if (x == 0) {
                return;
            }
            barrier(CLK_LOCAL_MEM_FENCE);
            output[y * width + x] = 1.0f;
        }
        """
        out = Buffer(np.zeros((4, 4), dtype=np.float64), "output")
        with pytest.raises(BarrierDivergenceError):
            Executor(backend="codegen").run(
                compile_kernel(source),
                NDRange((4, 4), (4, 4)),
                {"output": out, "width": 4, "height": 4},
            )

    def test_out_of_bounds_error_parity(self):
        source = """
        __kernel void oob(__global float* output, int width, int height) {
            output[width * height + get_global_id(0)] = 1.0f;
        }
        """
        args = {
            "output": Buffer(np.zeros((4, 4), dtype=np.float64), "output"),
            "width": 4,
            "height": 4,
        }
        for backend in ("codegen", "interpreter"):
            with pytest.raises(KernelExecutionError):
                Executor(backend=backend).run(
                    compile_kernel(source), NDRange((4, 4), (4, 4)), args
                )

    def test_backend_is_registered(self):
        from repro.clsim.backends import available_backends, get_backend

        assert "codegen" in available_backends()
        assert isinstance(get_backend("codegen"), CodegenBackend)
        assert get_backend("codegen").supports_batching
