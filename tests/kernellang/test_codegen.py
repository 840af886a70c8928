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


def _run(source: str, backend: str, size: int = 8, work_group=(4, 4), image=None, **scalars):
    """Run a 2-arg image kernel and return (output, stats-tuple)."""
    if image is None:
        image = generate_image("natural", size=size, seed=11)
    inb = Buffer(image.copy(), "input")
    outb = Buffer(np.zeros_like(image), "output")
    stats = Executor(backend=backend).run(
        compile_kernel(source),
        NDRange((size, size), work_group),
        {"input": inb, "output": outb, "width": size, "height": size, **scalars},
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
        source = lower_kernel(pk.program, pk.kernel_def.name, (8, 8))
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
        lowered = lower_kernel(program, "k", (4, 4))
        assert "lsz" not in lowered  # folded to the literal 4
        _assert_backend_parity(source)

    def test_lowering_is_deterministic(self):
        from repro.apps import get_application

        pk = get_application("sobel3").perforator().accurate()
        first = lower_kernel(pk.program, pk.kernel_def.name, (8, 8))
        second = lower_kernel(pk.program, pk.kernel_def.name, (8, 8))
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
        first = codegen.codegen_kernel(a).function((4, 4))
        assert codegen.codegen_kernel(b).function((4, 4)) is first


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
        """-(-v) and --v must produce distinct canonical sources and run
        as themselves: regression for the clgen parenthesization collision
        that made one kernel execute the other's lowering."""
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


#: Lanes cycle through NaN, both zeros and values either side of them.
SPECIAL_IMAGE = np.resize(
    np.array([np.nan, -0.0, 0.0, 0.5, -0.5, 1.5, -0.0, np.nan]), (8, 8)
).copy()


def _assert_bitwise_parity(source: str, image=None, **scalars):
    """Equal output bytes (sign bits and NaNs included) and stats."""
    reference, ref_stats = _run(source, "interpreter", image=image, **scalars)
    produced, got_stats = _run(source, "codegen", image=image, **scalars)
    assert produced.tobytes() == reference.tobytes()
    assert got_stats == ref_stats
    return reference


class TestInterpreterSemantics:
    """Kernels the backends once disagreed on, compared byte for byte."""

    def test_uniform_argument_assigned_under_divergence(self):
        output = _assert_bitwise_parity("""
        float f(float a, float b) { if (b > 0.5f) { a = 0.0f; } return a; }

        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            output[y * width + x] = f(3.0f, input[y * width + x]);
        }
        """, image=np.resize(np.repeat([0.25, 0.75], 4), (8, 8)).copy())
        np.testing.assert_array_equal(output[0], [3, 3, 3, 3, 0, 0, 0, 0])

    def test_simple_helper_assigning_a_uniform_argument_in_a_branch(self):
        _assert_bitwise_parity("""
        int bump(int a) { a = a + 1; return a * 2; }

        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            int r = 0;
            if (input[y * width + x] > 0.5f) { r = bump(3); }
            output[y * width + x] = r;
        }
        """)

    @pytest.mark.parametrize(
        "expr",
        [
            "max(v, 0.0f)", "max(0.0f, v)", "min(v, 0.0f)", "min(0.0f, v)",
            "fmax(v, -0.0f)", "fmax(-0.0f, v)", "fmin(v, -0.0f)", "fmin(-0.0f, v)",
            "max(v, -v)", "min(-v, v)", "max(-0.0f * v, 0.0f)",
            "clamp(v, 0.0f, 1.0f)", "clamp(-0.0f * v, 0.0f, 1.0f)",
            "clamp(v, -0.0f, 0.0f)", "clamp(0.0f, v, 1.0f)",
        ],
    )
    def test_float_min_max_clamp_select_like_python(self, expr):
        _assert_bitwise_parity(f"""
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {{
            int x = get_global_id(0);
            int y = get_global_id(1);
            float v = input[y * width + x];
            output[y * width + x] = {expr};
        }}
        """, image=SPECIAL_IMAGE)

    def test_stores_keep_the_declared_scalar_type(self):
        # A float variable converts an int; an int one truncates a float.
        output = _assert_bitwise_parity("""
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            float v = input[y * width + x];
            float f = v;
            if (x > 2) { f = 3; }
            float g = 1.0f;
            g = x;
            float h = y;
            int i = 2.75f;
            int j = 0;
            j = -(float)(x) / 4;
            output[y * width + x] = f / 2 + g / 4 + h / 8 + i / 2 + j;
        }
        """)
        x, y = np.meshgrid(np.arange(8), np.arange(8))
        rest = output - x / 4 - y / 8 - 1 - np.trunc(-x / 4)
        np.testing.assert_array_equal(rest[x > 2], 1.5)

    @pytest.mark.parametrize(
        "body, scale, expected",
        [
            # A float parameter holds a float whatever the caller passed.
            ("float s = scale; r = s / 2 + s * 3.3f;", 1, 0.5 + 3.3),
            ("float s = scale; r = s * 3.3f;", np.float32(0.1), float(np.float32(0.1)) * 3.3),
            # An int picked from int and float operands converts in a float.
            ("float m = min(width, 9.5f); r = m / 16;", 1.0, 0.5),
            ("r = 0.0f; r = max(2.5f, width); r = r / 16;", 1.0, 0.5),
            ("r = width > 1 ? 1 : 2.5f; r = r / 2;", 1.0, 0.5),
            ("r = select(2.5f, 1, width > 1); r = r / 2;", 1.0, 0.5),
        ],
    )
    def test_uniform_values_stored_into_floats_are_floats(self, body, scale, expected):
        output = _assert_bitwise_parity(f"""
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height, float scale) {{
            int x = get_global_id(0);
            int y = get_global_id(1);
            float r = 0.0f;
            {body}
            output[y * width + x] = r;
        }}
        """, scale=scale)
        np.testing.assert_array_equal(output, expected)


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
        per launch rather than once per work group, and lowering each
        (kernel, work group) once across ``run`` and ``run_batch``."""
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
            lower_kernel(parse_program(source), "k", (8, 8))

        lowered = []
        real_lower = codegen.lower_kernel

        def counting_lower(program, kernel_name=None, local_size=(1,)):
            lowered.append(tuple(local_size))
            return real_lower(program, kernel_name, local_size)

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
        assert lowered == [(8, 8)]  # 64 work groups, one lowering

        batch = [args(image) for image in images]
        stats = Executor(backend="codegen").run_batch(kernel, ndrange, batch)
        for bound, (output, _) in zip(batch, expected):
            np.testing.assert_array_equal(bound["output"].array, output)
        summed = tuple(sum(values) for values in zip(*(s for _, s in expected)))
        assert _stats_tuple(stats) == summed
        assert lowered == [(8, 8)]  # the rejection is remembered

    def test_generated_source_that_fails_to_compile_runs_on_the_interpreter(self, monkeypatch):
        """Lowered source is compiled in process only; if an emitter bug
        made it invalid Python, that is a LoweringError, and the launch
        returns the interpreter's result instead of crashing."""
        source = """
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            output[y * width + x] = 2.0f * input[y * width + x];
        }
        """
        reference, ref_stats = _run(source, "interpreter")
        monkeypatch.setattr(codegen, "lower_kernel", lambda *args: "def kernel_pass(rt:\n")
        kernel = compile_kernel(source)
        with pytest.raises(LoweringError, match="failed to compile"):
            codegen.codegen_kernel(kernel).function((4, 4))
        produced, got_stats = _run(source, "codegen")
        np.testing.assert_array_equal(produced, reference)
        assert got_stats == ref_stats

    def test_python_body_kernels_are_rejected(self):
        def body(ctx, wi):
            ctx.buffer("output").write((wi.gid(1), wi.gid(0)), 1.0)

        kernel = Kernel("handwritten", body, ["output"])
        out = Buffer(np.zeros((4, 4), dtype=np.float64), "output")
        with pytest.raises(KernelExecutionError, match="no kernellang AST"):
            Executor(backend="codegen").run(
                kernel, NDRange((4, 4), (4, 4)), {"output": out}
            )

    def test_balanced_divergent_barriers_fall_back(self):
        """The lock-step interpreter only counts barriers per work-item and
        accepts balanced divergent barriers; the lowering requires every
        lane of a pass at the same barrier statement, so it rejects the
        kernel and the codegen backend returns the interpreter's result."""
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
        with pytest.raises(LoweringError, match="barrier"):
            lower_kernel(parse_program(source), "balanced", (4, 4))
        ndrange = NDRange((4, 4), (4, 4))
        results = {}
        for backend in ("interpreter", "codegen"):
            out = Buffer(np.zeros((4, 4), dtype=np.float64), "output")
            stats = Executor(backend=backend).run(
                compile_kernel(source), ndrange, {"output": out, "width": 4, "height": 4}
            )
            results[backend] = (out.array, _stats_tuple(stats))
        assert results["codegen"][1] == results["interpreter"][1]
        assert results["codegen"][1][2] == 1  # barriers
        np.testing.assert_array_equal(results["codegen"][0], results["interpreter"][0])

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

    def test_backend_is_built_in(self):
        from repro.clsim.backends import available_backends, resolve_backend

        assert "codegen" in available_backends()
        assert isinstance(resolve_backend("codegen"), CodegenBackend)
        assert resolve_backend("codegen").supports_batching
