"""Tests for the access-pattern and reuse analyses."""

import pytest

from repro.kernellang import AnalysisError, parse_kernel
from repro.kernellang.analysis import LinearForm, analyze_kernel, reuse_info
from repro.kernellang.analysis.access_patterns import SYM_W, SYM_X, SYM_Y


pytestmark = pytest.mark.slow

GAUSSIAN = """
__kernel void gaussian(__global const float* input, __global float* output, int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    float sum = 0.0f;
    for (int dy = -1; dy <= 1; dy++) {
        for (int dx = -1; dx <= 1; dx++) {
            int xx = clamp(x + dx, 0, width - 1);
            int yy = clamp(y + dy, 0, height - 1);
            sum += input[yy * width + xx];
        }
    }
    output[y * width + x] = sum * 0.111f;
}
"""

INVERSION = """
__kernel void inversion(__global const float* input, __global float* output, int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    output[y * width + x] = 255.0f - input[y * width + x];
}
"""

TWO_BUFFERS = """
__kernel void hotspot(__global const float* temp, __global const float* power,
                      __global float* output, int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int n = clamp(y - 1, 0, height - 1);
    int s = clamp(y + 1, 0, height - 1);
    float acc = temp[n * width + x] + temp[s * width + x] + temp[y * width + x];
    output[y * width + x] = acc + power[y * width + x];
}
"""


class TestLinearForm:
    def test_arithmetic(self):
        x = LinearForm.symbol(SYM_X)
        w = LinearForm.symbol(SYM_W)
        form = x * w + LinearForm.constant(3) - x
        assert form.coefficient(SYM_X, SYM_W) == 1.0
        assert form.coefficient(SYM_X) == -1.0
        assert form.constant_term == 3.0
        assert form.degree() == 2

    def test_multiplication_distributes(self):
        x = LinearForm.symbol(SYM_X)
        y = LinearForm.symbol(SYM_Y)
        product = (x + y) * LinearForm.constant(2)
        assert product.coefficient(SYM_X) == 2.0
        assert product.coefficient(SYM_Y) == 2.0

    def test_negation_cancels(self):
        x = LinearForm.symbol(SYM_X)
        zero = x + x.negate()
        assert zero.terms == {}


class TestAccessPatternAnalysis:
    def test_gaussian_offsets(self):
        info = analyze_kernel(parse_kernel(GAUSSIAN))
        summary = info.summary("input")
        assert len(summary.offsets) == 9
        assert summary.halo == 1
        assert summary.footprint == (3, 3)
        assert info.is_stencil
        assert info.output_buffers == {"output"}
        assert info.x_var == "x" and info.y_var == "y"
        assert info.width_param == "width" and info.height_param == "height"

    def test_inversion_single_offset(self):
        info = analyze_kernel(parse_kernel(INVERSION))
        summary = info.summary("input")
        assert summary.offsets == {(0, 0)}
        assert summary.halo == 0
        assert not info.is_stencil

    def test_two_input_buffers(self):
        info = analyze_kernel(parse_kernel(TWO_BUFFERS))
        assert set(info.input_buffers) == {"temp", "power"}
        assert info.summary("temp").halo == 1
        assert info.summary("power").halo == 0

    def test_direct_get_global_id_in_index(self):
        source = """
        __kernel void direct(__global const float* input, __global float* output, int width, int height) {
            output[get_global_id(1) * width + get_global_id(0)] =
                input[get_global_id(1) * width + get_global_id(0) + 1];
        }
        """
        info = analyze_kernel(parse_kernel(source))
        assert info.summary("input").offsets == {(1, 0)}

    def test_local_memory_detected(self):
        source = """
        __kernel void uses_local(__global const float* input, __global float* output, int width, int height) {
            __local float tile[64];
            int x = get_global_id(0);
            tile[get_local_id(0)] = input[x];
            barrier(CLK_LOCAL_MEM_FENCE);
            output[x] = tile[get_local_id(0)];
        }
        """
        info = analyze_kernel(parse_kernel(source))
        assert info.uses_local_memory

    def test_non_affine_access_rejected(self):
        source = """
        __kernel void weird(__global const float* input, __global float* output, int width, int height) {
            int x = get_global_id(0);
            output[x] = input[x * x];
        }
        """
        with pytest.raises(AnalysisError):
            analyze_kernel(parse_kernel(source))

    def test_data_dependent_access_rejected(self):
        source = """
        __kernel void gather(__global const float* input, __global float* output, int width, int height) {
            int x = get_global_id(0);
            int idx = (int)(input[x]);
            output[x] = input[idx];
        }
        """
        with pytest.raises(AnalysisError):
            analyze_kernel(parse_kernel(source))


class TestReuse:
    def test_gaussian_has_reuse(self):
        kernel = parse_kernel(GAUSSIAN)
        reuse = reuse_info(kernel)["input"]
        assert reuse.accesses_per_item == 9
        assert reuse.reuse_factor(16, 16) > 5.0
        assert reuse.benefits_from_local_memory(16, 16)

    def test_inversion_has_no_reuse(self):
        kernel = parse_kernel(INVERSION)
        reuse = reuse_info(kernel)["input"]
        assert reuse.reuse_factor(16, 16) == pytest.approx(1.0)
        assert not reuse.benefits_from_local_memory(16, 16)

    def test_unique_elements_scale_with_halo(self):
        kernel = parse_kernel(GAUSSIAN)
        reuse = reuse_info(kernel)["input"]
        assert reuse.unique_elements(16, 16) == 18 * 18
