"""Unit tests for the shared lowering passes (:mod:`repro.kernellang.passes`).

The cross-backend conformance suites pin whole-backend parity over the
bundled applications; this module pins each pass's contract in isolation:

* the IR lattices (``join_kind`` / ``promote_dt`` / ``binop_dtype``);
* the uniformity analysis' classification of a kernel body;
* the mask-insertion merge rules and C-semantics arithmetic kernels;
* the memory views' bounds checking and access accounting;
* the batching transform's segment routing and validation;
* golden snapshots of the lowered source for a uniform, a divergent and
  a batched kernel (regenerate with ``REPRO_REGEN_GOLDEN=1``).
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.clsim import Executor, NDRange
from repro.clsim.memory import Buffer, SegmentedBuffer
from repro.kernellang.codegen import lower_kernel
from repro.kernellang.errors import InterpreterError
from repro.kernellang.interpreter import compile_kernel
from repro.kernellang.ir import (
    LoweringError,
    Scope,
    ScopeView,
    binop_dtype,
    join_kind,
    promote_dt,
)
from repro.kernellang.parser import parse_program
from repro.kernellang.passes.batching import lane_requests, segmented_global_view
from repro.kernellang.passes.masking import (
    FnFlow,
    decl_scalar,
    full_assign,
    masked_assign,
    merge_parts,
    uniform_div,
    uniform_mod,
    varying_div,
)
from repro.kernellang.passes.memory import ConstantView, GlobalView, PrivateView
from repro.kernellang.passes.uniformity import classify_kernel

GOLDEN_DIR = Path(__file__).parent / "golden"

UNIFORM_KERNEL = """
__kernel void k(__global const float* input, __global float* output,
                int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    float acc = 0.0f;
    for (int dx = -1; dx <= 1; dx++) {
        int cx = clamp(x + dx, 0, width - 1);
        acc += input[y * width + cx];
    }
    output[y * width + x] = acc / 3.0f;
}
"""

DIVERGENT_KERNEL = """
__kernel void k(__global const float* input, __global float* output,
                int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    float v = input[y * width + x];
    int n = 0;
    while (v > 0.1f) {
        if (n >= 12) { break; }
        v = v * 0.5f;
        n++;
    }
    output[y * width + x] = (n > 0) ? v : -v;
}
"""


class TestIRLattices:
    def test_join_kind_varying_absorbs(self):
        assert join_kind("u", "u") == "u"
        assert join_kind("u", "v") == "v"
        assert join_kind("v") == "v"
        assert join_kind() == "u"

    def test_promote_dt(self):
        assert promote_dt("i", "i") == "i"
        assert promote_dt("i", "f") == "f"
        assert promote_dt("f", "x") == "x"

    def test_binop_dtype_follows_c_semantics(self):
        assert binop_dtype("<", "f", "f") == "i"  # comparisons are int
        assert binop_dtype("&", "f", "f") == "i"
        assert binop_dtype("/", "i", "i") == "i"  # int/int truncates
        assert binop_dtype("/", "i", "f") == "f"
        assert binop_dtype("%", "i", "x") == "x"  # unknown stays unknown
        assert binop_dtype("+", "i", "f") == "f"

    def test_scope_view_is_a_snapshot(self):
        scope = Scope()
        scope.kind["a"] = "u"
        view = ScopeView(scope)
        view.kind["a"] = "v"
        assert scope.kind["a"] == "u"
        assert view.optimistic


class TestUniformityAnalysis:
    def test_classifies_uniform_and_varying(self):
        program = parse_program(UNIFORM_KERNEL)
        analysis, scope = classify_kernel(program, "k", (4, 4))
        # gid-derived values are varying, scalar params are uniform.
        assert scope.kind["x"] == "v"
        assert scope.kind["y"] == "v"
        assert scope.kind["width"] == "u"
        assert scope.kind["acc"] == "v"
        assert scope.dt["acc"] == "f"
        assert scope.dt["cx"] == "i"
        assert not analysis.has_masked_return

    def test_pointer_params_are_containers(self):
        program = parse_program(UNIFORM_KERNEL)
        _, scope = classify_kernel(program, "k", (4, 4))
        assert scope.space["input"] == "global"
        assert "input" not in scope.kind

    def test_divergent_kernel_has_divergent_decls(self):
        program = parse_program(DIVERGENT_KERNEL)
        analysis, scope = classify_kernel(program, "k", (4, 4))
        assert scope.kind["v"] == "v"
        assert scope.kind["n"] == "v"
        assert not analysis.has_masked_return

    def test_unsupported_construct_raises_lowering_error(self):
        program = parse_program("""
        __kernel void k(__global float* output, int width, int height) {
            int d = width;
            output[get_global_id(d)] = 1.0f;
        }
        """)
        with pytest.raises(LoweringError, match="cannot specialize"):
            classify_kernel(program, "k", (4, 4))


class TestMaskingMergeRules:
    def test_masked_assign_merges_active_lanes(self):
        existing = np.array([1.0, 2.0, 3.0, 4.0])
        mask = np.array([True, False, True, False])
        out = masked_assign(existing, np.full(4, 9.0), mask)
        np.testing.assert_array_equal(out, [9.0, 2.0, 9.0, 4.0])

    def test_masked_assign_keeps_int_slots_int(self):
        existing = np.array([1, 2, 3, 4], dtype=np.int64)
        mask = np.array([True, True, False, False])
        out = masked_assign(existing, np.full(4, 2.9), mask)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [2, 2, 3, 4])  # truncation

    def test_full_assign_truncates_into_int_slot(self):
        out = full_assign(np.array([1, 2], dtype=np.int64), np.array([1.9, -1.9]))
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [1, -1])

    def test_decl_scalar_divergent_redeclaration(self):
        existing = np.array([5.0, 6.0])
        mask = np.array([True, False])
        np.testing.assert_array_equal(
            decl_scalar(existing, np.full(2, 0.0), mask), [0.0, 6.0]
        )
        # Full mask or fresh slot: plain rebinding.
        np.testing.assert_array_equal(
            decl_scalar(None, np.full(2, 0.0), mask), [0.0, 0.0]
        )

    def test_merge_parts_promotes_dtype(self):
        parts = [
            (np.array([True, False]), np.array([1, 1], dtype=np.int64)),
            (np.array([False, True]), np.array([0.5, 0.5])),
        ]
        out = merge_parts(2, parts)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, 0.5])


class TestMaskingArithmetic:
    def test_int_division_truncates_toward_zero(self):
        left = np.array([7, -7, 7, -7], dtype=np.int64)
        right = np.array([2, 2, -2, -2], dtype=np.int64)
        out = varying_div(left, right, np.ones(4, dtype=bool))
        np.testing.assert_array_equal(out, [3, -3, -3, 3])

    def test_division_by_zero_only_raises_on_active_lanes(self):
        left = np.array([4, 4], dtype=np.int64)
        right = np.array([2, 0], dtype=np.int64)
        inactive = np.array([True, False])
        out = varying_div(left, right, inactive)
        assert out[0] == 2
        with pytest.raises(InterpreterError, match="integer division by zero"):
            varying_div(left, right, np.array([True, True]))

    def test_uniform_div_matches_c(self):
        assert uniform_div(7, 2) == 3
        assert uniform_div(-7, 2) == -3
        assert uniform_div(7.0, 2) == 3.5
        with pytest.raises(InterpreterError):
            uniform_div(1, 0)

    def test_uniform_mod_fmod_semantics(self):
        assert uniform_mod(-7, 3) == -1  # C fmod, not Python %
        with pytest.raises(InterpreterError):
            uniform_mod(1, 0)

    def test_comparisons_yield_int_lanes(self):
        """A varying float comparison is an int lane: ``/ 2`` truncates it
        to 0, so only the ``+`` term survives (a float lane would give 1.5)."""
        source = """
        __kernel void k(__global const float* input, __global float* output,
                        int width, int height) {
            int i = get_global_id(1) * width + get_global_id(0);
            float v = input[i];
            output[i] = (v < 0.5f) / 2 + (v < 0.5f);
        }
        """
        image = np.linspace(0.0, 1.0, 16).reshape(4, 4)
        outputs = {}
        for backend in ("interpreter", "codegen"):
            out = Buffer(np.zeros_like(image), "output")
            Executor(backend=backend).run(
                compile_kernel(source),
                NDRange((4, 4), (4, 4)),
                {"input": Buffer(image, "input"), "output": out, "width": 4, "height": 4},
            )
            outputs[backend] = out.array
        np.testing.assert_array_equal(outputs["codegen"], (image < 0.5).astype(np.float64))
        np.testing.assert_array_equal(outputs["codegen"], outputs["interpreter"])


class TestFlowBookkeeping:
    def test_flow_merges_return_values_per_lane(self):
        flow = FnFlow(4)
        flow.record(np.array([True, False, False, False]), np.full(4, 1.5))
        flow.record(np.array([False, True, False, False]), np.full(4, 2.5))
        np.testing.assert_array_equal(flow.returned, [True, True, False, False])
        np.testing.assert_array_equal(flow.result(), [1.5, 2.5, 0.0, 0.0])

    def test_fnflow_lanes_falling_off_return_int_zero(self):
        fn = FnFlow(2)
        assert fn.result().dtype == np.int64
        fn.record(np.array([True, False]), np.full(2, 7.0))
        np.testing.assert_array_equal(fn.result(), [7.0, 0.0])


class TestMemoryViews:
    def test_global_view_counts_active_lanes(self):
        buf = Buffer(np.arange(8, dtype=np.float64), "b")
        view = GlobalView(buf)
        mask = np.array([True, True, False])
        out = view.loadm(np.array([0, 1, 2]), mask)
        assert buf.counters.reads == 2  # only active lanes counted
        np.testing.assert_array_equal(out[:2], [0.0, 1.0])
        view.storem(np.array([4, 5, 6]), np.full(3, -1.0), mask)
        assert buf.counters.writes == 2
        assert buf.array[6] == 6.0  # inactive lane untouched

    def test_global_view_bounds_error_matches_interpreter(self):
        view = GlobalView(Buffer(np.zeros(4), "b"))
        with pytest.raises(
            InterpreterError, match=r"global buffer 'b': index 9 out of bounds"
        ):
            view.loadm(np.array([0, 9]), np.array([True, True]))
        # Inactive out-of-bounds lanes are not an error.
        view.loadm(np.array([0, 9]), np.array([True, False]))

    def test_private_view_is_per_lane(self):
        view = PrivateView("p", 2, lanes=3)
        mask = np.ones(3, dtype=bool)
        view.storem(np.zeros(3, dtype=np.int64), np.array([1.0, 2.0, 3.0]), mask)
        np.testing.assert_array_equal(view.loadm(np.zeros(3, dtype=np.int64), mask),
                                      [1.0, 2.0, 3.0])

    def test_constant_view_is_read_only(self):
        view = ConstantView("c", np.arange(3, dtype=np.float64))
        with pytest.raises(InterpreterError, match="constant array 'c' is read-only"):
            view.storem(np.zeros(1, dtype=np.int64), np.zeros(1), np.ones(1, dtype=bool))


class TestBatchingTransform:
    def test_lane_requests_routing(self):
        np.testing.assert_array_equal(lane_requests(3, 2), [0, 0, 1, 1, 2, 2])

    def test_segmented_view_isolates_requests(self):
        data = np.arange(8, dtype=np.float64)  # 2 segments of 4
        buf = SegmentedBuffer(data, "b", segment_elements=4, batch=2)
        view = segmented_global_view(buf, 2, lane_requests(2, 2))
        mask = np.ones(4, dtype=bool)
        # All four lanes read logical index 1 -> each request's own element.
        out = view.loadm(np.full(4, 1, dtype=np.int64), mask)
        np.testing.assert_array_equal(out, [1.0, 1.0, 5.0, 5.0])

    def test_segmented_bounds_are_per_segment(self):
        buf = SegmentedBuffer(np.zeros(8), "b", segment_elements=4, batch=2)
        view = segmented_global_view(buf, 2, lane_requests(2, 2))
        with pytest.raises(InterpreterError, match="index 4 out of bounds \\[0, 4\\)"):
            # Index 4 is in range of the *stacked* array but not the segment.
            view.loadm(np.full(4, 4, dtype=np.int64), np.ones(4, dtype=bool))

    def test_validation_rejects_plain_buffers(self):
        with pytest.raises(
            InterpreterError,
            match="batched launch requires every pointer argument to be a "
            "SegmentedBuffer with 2 segments",
        ):
            segmented_global_view(Buffer(np.zeros(4), "b"), 2, lane_requests(2, 2))


class TestGoldenLoweredSource:
    """The lowered source of three representative kernels, pinned byte-for-byte.

    These snapshots are the emission contract of the pass pipeline: an
    edit that changes them changes what every cached on-disk artifact
    contains and must bump ``CODEGEN_FORMAT_VERSION``.  Regenerate with
    ``REPRO_REGEN_GOLDEN=1 pytest tests/kernellang/test_passes.py``.
    """

    CASES = [
        ("uniform", UNIFORM_KERNEL, False),
        ("divergent", DIVERGENT_KERNEL, False),
        ("batched", DIVERGENT_KERNEL, True),
    ]

    @pytest.mark.parametrize("name,source,batched", CASES)
    def test_lowered_source_matches_golden(self, name, source, batched):
        program = parse_program(source)
        lowered = lower_kernel(program, "k", (4, 4), batched)
        golden_path = GOLDEN_DIR / f"{name}_4x4.lowered.txt"
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            golden_path.write_text(lowered)
        assert golden_path.exists(), (
            f"golden file missing; run REPRO_REGEN_GOLDEN=1 pytest {__file__}"
        )
        assert lowered == golden_path.read_text()
