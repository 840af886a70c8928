"""Unit tests for the shared lowering passes (:mod:`repro.kernellang.passes`).

The cross-backend conformance suites pin whole-backend parity over the
bundled applications; this module pins each pass's contract in isolation:

* the IR's kind lattice (``join_kind``) and dtype mapping (``ctype_dt``);
* the uniformity analysis' classification of a kernel body;
* the mask-insertion merge rules and C-semantics arithmetic kernels;
* the memory views' bounds checking and access accounting;
* the batching transform's lane routing, segment offsets and validation;
* golden snapshots of the lowered source for a uniform, a divergent and
  a tiled kernel, and for the paper's staging idiom (gaussian
  ``Stencil1:NN`` at 16x16; regenerate with ``REPRO_REGEN_GOLDEN=1``);
* the emission contract over every bundled kernel and configuration:
  predicates stay masks, and no statement writes a lane array in place;
* a golden snapshot of the OpenCL C the perforator prints for every
  bundled kernel and configuration, which pins the front end (lexer,
  parser and transforms) ahead of the lowering;
* lowered-source determinism: two processes with different hash seeds
  lower every bundled pair to the same text.
"""

import ast as pyast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps import all_applications
from repro.clsim import Executor, NDRange
from repro.clsim.memory import Buffer, LocalMemory, SegmentedBuffer
from repro.core.config import ACCURATE_CONFIG, default_configurations
from repro.core.perforator import build_kernel
from repro.kernellang.codegen import codegen_kernel, lower_kernel
from repro.kernellang.errors import InterpreterError
from repro.kernellang.interpreter import compile_kernel, float_div, int_div, int_mod
from repro.kernellang.ir import LoweringError, Scope, ScopeView, ctype_dt, join_kind
from repro.kernellang.parser import parse_program
from repro.kernellang.passes.batching import global_view, local_view, route_lanes
from repro.kernellang.passes.masking import (
    FnFlow,
    decl_scalar,
    masked_assign,
    merge_parts,
    varying_int_div,
)
from repro.kernellang.passes import ranges
from repro.kernellang.passes.memory import ConstantView, PrivateView
from repro.kernellang.passes.uniformity import classify_kernel
from repro.kernellang.types import BOOL, DOUBLE, FLOAT, INT

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

#: The shape of the paper's prefetch code: stage a tile per work group in
#: local memory, synchronise, then read neighbours from the tile.
TILED_KERNEL = """
__kernel void k(__global const float* input, __global float* output,
                int width, int height) {
    __local float tile[16];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int x = get_group_id(0) * 4 + lx;
    int y = get_group_id(1) * 4 + ly;
    tile[ly * 4 + lx] = input[y * width + x];
    barrier(CLK_LOCAL_MEM_FENCE);
    output[y * width + x] = 0.5f * (tile[ly * 4 + lx] + tile[ly * 4 + (lx + 1) % 4]);
}
"""


class TestIRLattices:
    def test_join_kind_varying_absorbs(self):
        assert join_kind("u", "u") == "u"
        assert join_kind("u", "v") == "v"
        assert join_kind("v") == "v"
        assert join_kind() == "u"

    def test_ctype_dt_maps_the_checkers_types(self):
        assert [ctype_dt(t) for t in (INT, BOOL, FLOAT, DOUBLE)] == ["i", "i", "f", "f"]

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
        assert not analysis.has_masked_return

    def test_group_ids_and_memory_loads_are_varying(self):
        """A stacked pass runs many groups: group ids differ per lane, and a
        global load may read a different request's segment per lane."""
        program = parse_program(TILED_KERNEL)
        _, scope = classify_kernel(program, "k", (4, 4))
        assert scope.kind["x"] == "v"
        assert scope.kind["lx"] == "v"

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


class TestRangeFact:
    """The interval arithmetic the lowering's range rules rest on."""

    def test_c_division_and_remainder_truncate_toward_zero(self):
        assert ranges.div((-7, 7), ranges.point(2)) == (-3, 3)
        assert ranges.mod((-7, 7), ranges.point(3)) == (-2, 2)
        assert ranges.mod((0, 17), ranges.point(2)) == (0, 1)
        assert ranges.mod((3, 5), ranges.point(8)) == (3, 5)
        # A divisor that may be zero proves nothing.
        assert ranges.div((0, 9), (0, 3)) == ranges.TOP
        assert ranges.mod((0, 9), (-1, 1)) == ranges.TOP

    def test_bounds_beyond_int64_are_unbounded(self):
        assert ranges.mul((0, 2**40), (0, 2**40)) == (0, None)
        assert ranges.add((None, 5), (1, 1)) == (None, 6)

    def test_comparisons_decide_only_for_every_pair(self):
        assert ranges.compare("<", (0, 15), ranges.point(17)) is True
        assert ranges.compare(">=", (0, 15), ranges.point(17)) is False
        assert ranges.compare("<", (0, 17), ranges.point(17)) is None
        assert ranges.compare("==", (0, 3), (5, 9)) is False

    def test_narrowing_keeps_the_values_a_test_admits(self):
        assert ranges.narrow((-1, 7), ">=", ranges.point(0)) == (0, 7)
        assert ranges.narrow((0, 7), "!=", ranges.point(0)) == (1, 7)
        assert ranges.narrow((0, 3), ">", ranges.point(5)) is None

    def test_trip_counts(self):
        # for (t = ly; t < 18; t += 16): lane 0 runs 2 trips, lane 15 one.
        assert [ranges.trips(start, 18, 16) for start in (0, 1, 2, 15, 18)] == [2, 2, 1, 1, 0]

    def test_environments_join_by_hull_and_drop_one_sided_names(self):
        a = {"x": ((0, 3), (0, 3)), "y": ((1, 1), (1, 1))}
        b = {"x": ((5, 6), (-1, 6))}
        assert ranges.env_join(a, b) == {"x": ((0, 6), (-1, 6))}
        assert ranges.env_join(None, b) == b
        assert ranges.env_widen(a, ranges.env_join(a, b)) == {"x": ((0, None), (None, None))}


class TestMaskingMergeRules:
    def test_masked_assign_merges_active_lanes(self):
        existing = np.array([1.0, 2.0, 3.0, 4.0])
        mask = np.array([True, False, True, False])
        out = masked_assign(existing, np.full(4, 9.0), mask)
        np.testing.assert_array_equal(out, [9.0, 2.0, 9.0, 4.0])

    def test_masked_assign_returns_a_new_array_and_broadcasts_uniforms(self):
        existing = np.array([1, 2, 3], dtype=np.int64)
        out = masked_assign(existing, 7, np.array([False, True, False]))
        np.testing.assert_array_equal(out, [1, 7, 3])
        assert out.dtype == np.int64
        np.testing.assert_array_equal(existing, [1, 2, 3])  # never written in place

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

    def test_merge_parts_converts_to_the_static_dtype(self):
        parts = [
            (np.array([True, False]), np.array([1, 1], dtype=np.int64)),
            (np.array([False, True]), np.array([0.5, 0.5])),
        ]
        out = merge_parts(2, parts, np.float64)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, 0.5])


class TestMaskingArithmetic:
    def test_int_division_truncates_toward_zero(self):
        left = np.array([7, -7, 7, -7], dtype=np.int64)
        right = np.array([2, 2, -2, -2], dtype=np.int64)
        out = varying_int_div(left, right, np.ones(4, dtype=bool))
        np.testing.assert_array_equal(out, [3, -3, -3, 3])

    def test_division_by_zero_only_raises_on_active_lanes(self):
        left = np.array([4, 4], dtype=np.int64)
        right = np.array([2, 0], dtype=np.int64)
        inactive = np.array([True, False])
        out = varying_int_div(left, right, inactive)
        assert out[0] == 2
        with pytest.raises(InterpreterError, match="integer division by zero"):
            varying_int_div(left, right, np.array([True, True]))

    def test_uniform_div_matches_c(self):
        assert int_div(7, 2) == 3
        assert int_div(-7, 2) == -3
        assert float_div(7.0, 2) == 3.5
        with pytest.raises(InterpreterError):
            int_div(1, 0)

    def test_uniform_mod_fmod_semantics(self):
        assert int_mod(-7, 3) == -1  # C fmod, not Python %
        with pytest.raises(InterpreterError):
            int_mod(1, 0)

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
        flow = FnFlow(4, np.float64)
        flow.record(np.array([True, False, False, False]), np.full(4, 1.5))
        flow.record(np.array([False, True, False, False]), np.full(4, 2.5))
        np.testing.assert_array_equal(flow.returned, [True, True, False, False])
        np.testing.assert_array_equal(flow.value, [1.5, 2.5, 0.0, 0.0])

    def test_fnflow_lanes_falling_off_return_the_return_types_zero(self):
        fn = FnFlow(2, np.int64)
        assert fn.value.dtype == np.int64
        fn.record(np.array([True, False]), np.full(2, 7))
        np.testing.assert_array_equal(fn.value, [7, 0])
        assert FnFlow(2, np.float64).value.dtype == np.float64


def _single_view(buffer: Buffer, lanes: int):
    """The view of a single launch: no per-lane offset."""
    return global_view(buffer, 1, np.zeros(lanes, dtype=np.int64))


class TestMemoryViews:
    def test_global_view_counts_active_lanes(self):
        buf = Buffer(np.arange(8, dtype=np.float64), "b")
        view = _single_view(buf, 3)
        mask = np.array([True, True, False])
        out = view.loadm(np.array([0, 1, 2]), mask)
        assert buf.counters.reads == 2  # only active lanes counted
        np.testing.assert_array_equal(out[:2], [0.0, 1.0])
        view.storem(np.array([4, 5, 6]), np.full(3, -1.0), mask)
        assert buf.counters.writes == 2
        assert buf.array[6] == 6.0  # inactive lane untouched
        # A uniform index is broadcast and still counts every lane.
        np.testing.assert_array_equal(view.loadf(3), [3.0, 3.0, 3.0])
        assert buf.counters.reads == 5

    def test_global_view_bounds_error_matches_interpreter(self):
        view = _single_view(Buffer(np.zeros(4), "b"), 2)
        with pytest.raises(
            InterpreterError, match=r"global buffer 'b': index 9 out of bounds"
        ):
            view.loadm(np.array([0, 9]), np.array([True, True]))
        # Inactive out-of-bounds lanes are not an error.
        view.loadm(np.array([0, 9]), np.array([True, False]))

    def test_bounds_check_names_the_first_offending_active_lane(self):
        view = PrivateView("p", 4, lanes=4)
        idx = np.array([-3, 7, -1, 9])
        with pytest.raises(InterpreterError, match=r"'p': index 7 out of bounds \[0, 4\)"):
            view.loadm(idx, np.array([False, True, True, True]))
        with pytest.raises(InterpreterError, match=r"'p': index -1 out of bounds"):
            view.storem(idx, 1.0, np.array([False, False, True, True]))
        with pytest.raises(InterpreterError, match=r"'p': index -3 out of bounds"):
            view.loadf(idx)
        view.loadm(idx, np.zeros(4, dtype=bool))  # no active lane, no error

    def test_private_view_masked_store_leaves_inactive_lanes(self):
        view = PrivateView("p", 3, lanes=3)
        view.storef(1, np.array([1.0, 2.0, 3.0]))
        view.storem(np.array([1, -5, 1]), np.array([7.0, 8.0, 9.0]), np.array([True, False, True]))
        np.testing.assert_array_equal(view.loadf(1), [7.0, 2.0, 9.0])
        np.testing.assert_array_equal(view.loadf(np.array([1, 0, 2])), [7.0, 0.0, 0.0])

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
        # 2 requests x 3 groups of (2,) lanes; a pass over slots 2..4 holds
        # request 0's last group and request 1's first two groups.
        request, lid, grp = route_lanes(2, 3, (3,), (2,))
        np.testing.assert_array_equal(request, [0, 0, 1, 1, 1, 1])
        np.testing.assert_array_equal(grp[0], [2, 2, 0, 0, 1, 1])
        np.testing.assert_array_equal(lid[0], [0, 1, 0, 1, 0, 1])

    def test_lane_routing_follows_group_order_in_two_dimensions(self):
        request, lid, grp = route_lanes(0, 4, (2, 2), (2, 1))
        np.testing.assert_array_equal(request, np.zeros(8))
        np.testing.assert_array_equal(grp[0], [0, 0, 1, 1, 0, 0, 1, 1])
        np.testing.assert_array_equal(grp[1], [0, 0, 0, 0, 1, 1, 1, 1])
        np.testing.assert_array_equal(lid[0], [0, 1] * 4)
        np.testing.assert_array_equal(lid[1], np.zeros(8))

    def test_segmented_view_isolates_requests(self):
        data = np.arange(8, dtype=np.float64)  # 2 segments of 4
        buf = SegmentedBuffer(data, "b", segment_elements=4, batch=2)
        view = global_view(buf, 2, np.array([0, 0, 1, 1]))
        mask = np.ones(4, dtype=bool)
        # All four lanes read logical index 1 -> each request's own element.
        out = view.loadm(np.full(4, 1, dtype=np.int64), mask)
        np.testing.assert_array_equal(out, [1.0, 1.0, 5.0, 5.0])

    def test_segmented_bounds_are_per_segment(self):
        buf = SegmentedBuffer(np.zeros(8), "b", segment_elements=4, batch=2)
        view = global_view(buf, 2, np.array([0, 0, 1, 1]))
        with pytest.raises(InterpreterError, match="index 4 out of bounds \\[0, 4\\)"):
            # Index 4 is in range of the *stacked* array but not the segment.
            view.loadm(np.full(4, 4, dtype=np.int64), np.ones(4, dtype=bool))

    def test_validation_rejects_plain_buffers(self):
        with pytest.raises(
            InterpreterError,
            match="batched launch requires every pointer argument to be a "
            "SegmentedBuffer with 2 segments",
        ):
            global_view(Buffer(np.zeros(4), "b"), 2, np.array([0, 0, 1, 1]))

    def test_local_view_gives_every_group_its_own_tile(self):
        mem = LocalMemory(1024)
        view = local_view(mem, "t", 2, count=3, group_size=2)
        view.storef(np.array([0, 1] * 3), np.arange(6.0))
        np.testing.assert_array_equal(mem.tile("t"), np.arange(6.0))
        # Every lane reads index 1 of its own group's tile.
        np.testing.assert_array_equal(view.loadf(1), [1.0, 1.0, 3.0, 3.0, 5.0, 5.0])
        assert (mem.counters.reads, mem.counters.writes) == (6, 6)


class TestGoldenLoweredSource:
    """The lowered source of four representative kernels, pinned byte-for-byte.

    These snapshots are the emission contract of the pass pipeline: an
    edit that changes them changes what every compiled kernel runs, so
    review the diff.  The fourth is the paper's staging idiom, gaussian's
    ``Stencil1:NN`` kernel at its 16x16 work group: strided staging loops
    lowered to trips, in-bounds tile accesses and the reconstruction's
    clamps.  Regenerate with
    ``REPRO_REGEN_GOLDEN=1 pytest tests/kernellang/test_passes.py``.
    """

    CASES = [
        ("uniform", UNIFORM_KERNEL, (4, 4)),
        ("divergent", DIVERGENT_KERNEL, (4, 4)),
        ("tiled", TILED_KERNEL, (4, 4)),
        ("gaussian_stencil1_nn", "gaussian:Stencil1:NN", (16, 16)),
    ]

    @staticmethod
    def _lower(source: str, shape) -> str:
        if not source.startswith("gaussian:"):
            return lower_kernel(parse_program(source), "k", shape)
        app = next(a for a in all_applications() if a.name == "gaussian")
        label = source.split(":", 1)[1]
        config = next(c for c in default_configurations(app.halo) if c.label == label)
        assert config.work_group == shape
        compiled = codegen_kernel(build_kernel(app.kernel_source(), config))
        return lower_kernel(compiled.program, compiled.kernel_def.name, shape)

    @pytest.mark.parametrize("name,source,shape", CASES, ids=[c[0] for c in CASES])
    def test_lowered_source_matches_golden(self, name, source, shape):
        lowered = self._lower(source, shape)
        golden_path = GOLDEN_DIR / f"{name}_{shape[0]}x{shape[1]}.lowered.txt"
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            golden_path.write_text(lowered)
        assert golden_path.exists(), (
            f"golden file missing; run REPRO_REGEN_GOLDEN=1 pytest {__file__}"
        )
        assert lowered == golden_path.read_text()


def in_place_writes(source: str) -> list[str]:
    """Statements of a lowered source that write into an existing array:
    subscript or attribute stores, augmented assignments (the barrier
    counter ``_b`` aside) and NumPy calls with ``out=``."""
    found = []
    for node in pyast.walk(pyast.parse(source)):
        if isinstance(node, pyast.Assign):
            if any(not isinstance(t, pyast.Name) for t in node.targets):
                found.append(pyast.unparse(node))
        elif isinstance(node, pyast.AugAssign):
            if not (isinstance(node.target, pyast.Name) and node.target.id == "_b"):
                found.append(pyast.unparse(node))
        elif isinstance(node, pyast.Call) and any(k.arg == "out" for k in node.keywords):
            found.append(pyast.unparse(node))
    return found


class TestEmissionContract:
    """Every bundled kernel under every default configuration and the
    accurate one, lowered at its work group: comparisons stay bool masks
    (no int round trip), and no statement writes into a variable's lane
    array in place, which is what lets the lowering bind an int vector to
    a variable without copying it."""

    PAIRS = [
        (app, config)
        for app in all_applications()
        for config in (ACCURATE_CONFIG, *default_configurations(app.halo))
    ]

    def test_every_bundled_pair_is_covered(self):
        assert len(self.PAIRS) == 29

    @pytest.mark.parametrize("app,config", PAIRS, ids=[f"{a.name}-{c.label}" for a, c in PAIRS])
    def test_lowered_source_keeps_the_contract(self, app, config):
        compiled = codegen_kernel(build_kernel(app.kernel_source(), config))
        source = lower_kernel(compiled.program, compiled.kernel_def.name, config.work_group)
        assert ".astype(_I))) != 0" not in source
        assert in_place_writes(source) == []

    def test_the_checks_see_the_old_emission(self):
        old = "_t1 = ((((a) < (b)).astype(_I))) != 0\n_t2[m] = 1\n_t3 += x\n_b += 1\n"
        assert ".astype(_I))) != 0" in old
        assert in_place_writes(old) == ["_t2[m] = 1", "_t3 += x"]


class TestGoldenClgenSource:
    """The OpenCL C text (``clgen``) of all 29 bundled pairs, pinned
    byte-for-byte in one file: what the lexer, parser and perforation
    transforms make of each kernel source before anything is lowered.
    Regenerate with ``REPRO_REGEN_GOLDEN=1`` and review the diff."""

    def test_clgen_source_matches_golden(self):
        text = "".join(
            f"// ===== {app.name} {config.key}\n{app.perforator().perforate(config).source}\n"
            for app, config in TestEmissionContract.PAIRS
        )
        golden_path = GOLDEN_DIR / "bundled_pairs.clgen.txt"
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            golden_path.write_text(text)
        assert golden_path.exists(), (
            f"golden file missing; run REPRO_REGEN_GOLDEN=1 pytest {__file__}"
        )
        assert text == golden_path.read_text()


#: Prints the lowered source of every bundled pair, in order.
LOWER_BUNDLED_PAIRS = """
from repro.apps import all_applications
from repro.core.config import ACCURATE_CONFIG, default_configurations
from repro.core.perforator import build_kernel
from repro.kernellang.codegen import codegen_kernel, lower_kernel

for app in all_applications():
    for config in (ACCURATE_CONFIG, *default_configurations(app.halo)):
        compiled = codegen_kernel(build_kernel(app.kernel_source(), config))
        print(lower_kernel(compiled.program, compiled.kernel_def.name, config.work_group))
"""


class TestLoweringDeterminism:
    def test_bundled_pairs_lower_alike_under_different_hash_seeds(self):
        """Set and dict orders that follow string hashes must not reach the
        lowered text: two fresh processes print it byte for byte alike."""
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", LOWER_BUNDLED_PAIRS],
                stdout=subprocess.PIPE,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            for seed in ("1", "2")
        ]
        first, second = (run.communicate(timeout=120)[0] for run in runs)
        assert all(run.returncode == 0 for run in runs)
        assert first.count(b"def kernel_pass(rt):") == len(TestEmissionContract.PAIRS)
        assert first == second
