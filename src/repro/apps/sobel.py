"""Sobel edge detection (3x3 and 5x5 masks).

The Sobel operator approximates the image gradient with a horizontal and a
vertical convolution and reports the gradient magnitude.  The paper
evaluates two variants: ``Sobel3`` (3x3 masks) and ``Sobel5`` (5x5 masks).
The larger mask has much more data reuse across threads, which is why the
paper measures its largest speedup (3.05x) there.  Both use the *mean
error* metric because gradient outputs are frequently zero, which breaks
the mean relative error (Table 1).
"""

from __future__ import annotations

import numpy as np

from ..core.config import ApproximationConfig
from ..core.quality import ErrorMetric
from ..core.reconstruction import AccurateSampler, InputSampler
from .base import Application
from .stencils import convolve_masks, count_nonzero_weights

#: 3x3 Sobel masks.
SOBEL3_GX = np.array(
    [
        [-1.0, 0.0, 1.0],
        [-2.0, 0.0, 2.0],
        [-1.0, 0.0, 1.0],
    ]
)
SOBEL3_GY = SOBEL3_GX.T.copy()

#: 5x5 Sobel (Sobel-Feldman extended) masks.
SOBEL5_GX = np.array(
    [
        [-1.0, -2.0, 0.0, 2.0, 1.0],
        [-4.0, -8.0, 0.0, 8.0, 4.0],
        [-6.0, -12.0, 0.0, 12.0, 6.0],
        [-4.0, -8.0, 0.0, 8.0, 4.0],
        [-1.0, -2.0, 0.0, 2.0, 1.0],
    ]
)
SOBEL5_GY = SOBEL5_GX.T.copy()

_KERNEL_SOURCE_3 = """
__kernel void sobel3(__global const float* input,
                     __global float* output,
                     int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    float gx = 0.0f;
    float gy = 0.0f;
    for (int dy = -1; dy <= 1; dy++) {
        for (int dx = -1; dx <= 1; dx++) {
            int xx = clamp(x + dx, 0, width - 1);
            int yy = clamp(y + dy, 0, height - 1);
            float value = input[yy * width + xx];
            gx += value * (float)(dx) * (2.0f - (float)(dy) * (float)(dy));
            gy += value * (float)(dy) * (2.0f - (float)(dx) * (float)(dx));
        }
    }
    output[y * width + x] = sqrt(gx * gx + gy * gy);
}
"""

_KERNEL_SOURCE_5 = """
__constant float sobel5_gx[25] = {
    -1.0f, -2.0f, 0.0f, 2.0f, 1.0f,
    -4.0f, -8.0f, 0.0f, 8.0f, 4.0f,
    -6.0f, -12.0f, 0.0f, 12.0f, 6.0f,
    -4.0f, -8.0f, 0.0f, 8.0f, 4.0f,
    -1.0f, -2.0f, 0.0f, 2.0f, 1.0f
};

__kernel void sobel5(__global const float* input,
                     __global float* output,
                     int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    float gx = 0.0f;
    float gy = 0.0f;
    for (int dy = -2; dy <= 2; dy++) {
        for (int dx = -2; dx <= 2; dx++) {
            int xx = clamp(x + dx, 0, width - 1);
            int yy = clamp(y + dy, 0, height - 1);
            float value = input[yy * width + xx];
            gx += value * sobel5_gx[(dy + 2) * 5 + (dx + 2)];
            gy += value * sobel5_gx[(dx + 2) * 5 + (dy + 2)];
        }
    }
    output[y * width + x] = sqrt(gx * gx + gy * gy);
}
"""


def _gradient_magnitude(sampler: InputSampler, gx_mask: np.ndarray, gy_mask: np.ndarray) -> np.ndarray:
    """``sqrt(gx * gx + gy * gy)``, both gradients summed in one pass over the taps."""
    gx, gy = convolve_masks(sampler, (gx_mask, gy_mask))
    np.multiply(gx, gx, out=gx)
    np.multiply(gy, gy, out=gy)
    gx += gy
    return np.sqrt(gx, out=gx)


class Sobel3App(Application):
    """Sobel edge detection with 3x3 masks."""

    name = "sobel3"
    domain = "Image processing"
    error_metric = ErrorMetric.MEAN_ERROR
    halo = 1
    flops_per_item = float(
        2 * count_nonzero_weights(SOBEL3_GX) + 2 * count_nonzero_weights(SOBEL3_GY) + 4
    )
    int_ops_per_item = 20.0
    sfu_ops_per_item = 1.0  # gradient-magnitude square root
    baseline_uses_local_memory = False

    def kernel_source(self) -> str:
        return _KERNEL_SOURCE_3

    def reference(self, inputs) -> np.ndarray:
        image = np.asarray(inputs, dtype=np.float64)
        return _gradient_magnitude(AccurateSampler(image), SOBEL3_GX, SOBEL3_GY)

    def approximate(self, inputs, config: ApproximationConfig) -> np.ndarray:
        image = np.asarray(inputs, dtype=np.float64)
        sampler = self.sampler_for(image, config)
        return _gradient_magnitude(sampler, SOBEL3_GX, SOBEL3_GY)


class Sobel5App(Application):
    """Sobel edge detection with 5x5 masks."""

    name = "sobel5"
    domain = "Image processing"
    error_metric = ErrorMetric.MEAN_ERROR
    halo = 2
    flops_per_item = float(
        2 * count_nonzero_weights(SOBEL5_GX) + 2 * count_nonzero_weights(SOBEL5_GY) + 4
    )
    int_ops_per_item = 40.0
    sfu_ops_per_item = 1.0
    baseline_uses_local_memory = False

    def kernel_source(self) -> str:
        return _KERNEL_SOURCE_5

    def reference(self, inputs) -> np.ndarray:
        image = np.asarray(inputs, dtype=np.float64)
        return _gradient_magnitude(AccurateSampler(image), SOBEL5_GX, SOBEL5_GY)

    def approximate(self, inputs, config: ApproximationConfig) -> np.ndarray:
        image = np.asarray(inputs, dtype=np.float64)
        sampler = self.sampler_for(image, config)
        return _gradient_magnitude(sampler, SOBEL5_GX, SOBEL5_GY)
