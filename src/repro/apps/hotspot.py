"""Hotspot: 2D transient thermal simulation (Rodinia).

Hotspot iteratively solves the heat equation on a chip floorplan: each
step updates the temperature grid from the previous temperature, the power
dissipated in each cell, and the heat exchanged with the neighbours and
the heat sink.  The kernel reads a 5-point stencil of the temperature grid
plus one element of the power grid per cell.

The paper perforates the *inputs* of the kernel (temperature and power)
with row scheme 1 and reports a 1.98x speedup with a very small, very
low-variance error — the temperature field is smooth, so skipping rows and
reconstructing them is almost lossless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import ApproximationConfig
from ..core.quality import ErrorMetric
from ..core.reconstruction import AccurateSampler, InputSampler, make_sampler
from ..data.hotspot import AMBIENT_TEMPERATURE, HotspotInput
from .base import Application, InputBufferSpec

#: Physical constants (following Rodinia's hotspot defaults, simplified to a
#: per-cell formulation that is stable for a single explicit step).
CHIP_HEIGHT_M = 0.016
CHIP_WIDTH_M = 0.016
T_CHIP_M = 0.0005
K_SI = 100.0
CAP_FACTOR = 0.5
MAX_PD = 3.0e6
PRECISION = 0.001


@dataclass(frozen=True)
class HotspotCoefficients:
    """Per-step update coefficients for a given grid size."""

    step_div_cap: float
    rx_1: float
    ry_1: float
    rz_1: float
    ambient: float = AMBIENT_TEMPERATURE

    @classmethod
    def for_grid(cls, rows: int, cols: int) -> "HotspotCoefficients":
        grid_height = CHIP_HEIGHT_M / rows
        grid_width = CHIP_WIDTH_M / cols
        cap = CAP_FACTOR * 1.75e6 * T_CHIP_M * grid_width * grid_height
        rx = grid_width / (2.0 * K_SI * T_CHIP_M * grid_height)
        ry = grid_height / (2.0 * K_SI * T_CHIP_M * grid_width)
        rz = T_CHIP_M / (K_SI * grid_height * grid_width)
        max_slope = MAX_PD / (CAP_FACTOR * 1.75e6 * T_CHIP_M)
        step = PRECISION / max_slope
        return cls(
            step_div_cap=step / cap,
            rx_1=1.0 / rx,
            ry_1=1.0 / ry,
            rz_1=1.0 / rz,
        )


_KERNEL_SOURCE = """
__kernel void hotspot(__global const float* temp,
                      __global const float* power,
                      __global float* output,
                      int width, int height,
                      float step_div_cap, float rx_1, float ry_1, float rz_1,
                      float ambient) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int n = clamp(y - 1, 0, height - 1);
    int s = clamp(y + 1, 0, height - 1);
    int w = clamp(x - 1, 0, width - 1);
    int e = clamp(x + 1, 0, width - 1);
    float center = temp[y * width + x];
    float delta = step_div_cap * (
        power[y * width + x] +
        (temp[s * width + x] + temp[n * width + x] - 2.0f * center) * ry_1 +
        (temp[y * width + e] + temp[y * width + w] - 2.0f * center) * rx_1 +
        (ambient - center) * rz_1);
    output[y * width + x] = center + delta;
}
"""


def _simulation_step(
    temp_sampler: InputSampler,
    power_sampler: InputSampler,
    coefficients: HotspotCoefficients,
) -> np.ndarray:
    """One explicit update step using (possibly approximate) input views.

    Evaluates, in place and in this order of operations and operands::

        center + step_div_cap * (power
            + (south + north - 2.0 * center) * ry_1
            + (east + west - 2.0 * center) * rx_1
            + (ambient - center) * rz_1)
    """
    center = temp_sampler.read_offset(0, 0)
    twice_center = np.multiply(2.0, center)
    total = np.add(temp_sampler.read_offset(0, 1), temp_sampler.read_offset(0, -1))
    total -= twice_center
    total *= coefficients.ry_1
    np.add(power_sampler.read_offset(0, 0), total, out=total)
    term = np.add(temp_sampler.read_offset(1, 0), temp_sampler.read_offset(-1, 0))
    term -= twice_center
    term *= coefficients.rx_1
    total += term
    np.subtract(coefficients.ambient, center, out=term)
    term *= coefficients.rz_1
    total += term
    np.multiply(coefficients.step_div_cap, total, out=total)
    return np.add(center, total, out=total)


class HotspotApp(Application):
    """One step of the Rodinia Hotspot thermal simulation."""

    name = "hotspot"
    domain = "Physics simulation"
    error_metric = ErrorMetric.MEAN_RELATIVE_ERROR
    halo = 1
    flops_per_item = 16.0
    int_ops_per_item = 24.0
    baseline_uses_local_memory = False  # Paraprox-style baseline reads global memory

    def kernel_source(self) -> str:
        return _KERNEL_SOURCE

    # ------------------------------------------------------------------
    def input_specs(self) -> list[InputBufferSpec]:
        return [
            InputBufferSpec(name="temp", halo=1, reads_per_item=5.0),
            InputBufferSpec(name="power", halo=0, reads_per_item=1.0),
        ]

    def global_size(self, inputs: HotspotInput) -> tuple[int, int]:
        return (inputs.size, inputs.size)

    def output_buffer(self, inputs: HotspotInput):
        from ..clsim.memory import Buffer

        return Buffer(np.zeros_like(inputs.temperature), "output")

    def kernel_args(self, inputs: HotspotInput, output) -> dict[str, object]:
        from ..clsim.memory import Buffer

        coefficients = HotspotCoefficients.for_grid(inputs.size, inputs.size)
        return {
            "temp": Buffer(inputs.temperature, "temp"),
            "power": Buffer(inputs.power, "power"),
            "output": output,
            "width": inputs.size,
            "height": inputs.size,
            "step_div_cap": coefficients.step_div_cap,
            "rx_1": coefficients.rx_1,
            "ry_1": coefficients.ry_1,
            "rz_1": coefficients.rz_1,
            "ambient": coefficients.ambient,
        }

    # ------------------------------------------------------------------
    def reference(self, inputs: HotspotInput) -> np.ndarray:
        coefficients = HotspotCoefficients.for_grid(inputs.size, inputs.size)
        return _simulation_step(
            AccurateSampler(inputs.temperature),
            AccurateSampler(inputs.power),
            coefficients,
        )

    def approximate(self, inputs: HotspotInput, config: ApproximationConfig) -> np.ndarray:
        coefficients = HotspotCoefficients.for_grid(inputs.size, inputs.size)
        tile_x, tile_y = config.work_group
        temp_sampler = make_sampler(
            inputs.temperature,
            config.scheme,
            config.reconstruction,
            tile_x=tile_x,
            tile_y=tile_y,
            halo=1,
        )
        if config.scheme.requires_halo():
            # The stencil scheme perforates the halo, which the 1x1 power
            # read does not have; the power buffer stays accurate then.
            power_sampler: InputSampler = AccurateSampler(inputs.power)
        else:
            power_sampler = make_sampler(
                inputs.power,
                config.scheme,
                config.reconstruction,
                tile_x=tile_x,
                tile_y=tile_y,
                halo=0,
            )
        return _simulation_step(temp_sampler, power_sampler, coefficients)

    # ------------------------------------------------------------------
    def simulate(
        self,
        inputs: HotspotInput,
        steps: int,
        config: ApproximationConfig | None = None,
    ) -> np.ndarray:
        """Run several simulation steps (used by the thermal example).

        When a configuration is given, every step reads its inputs through
        the perforated view — the accumulated drift over many steps is what
        the extended analysis (EXPERIMENTS.md) reports.
        """
        if steps <= 0:
            raise ValueError("steps must be positive")
        state = inputs
        result = inputs.temperature
        for _ in range(steps):
            if config is None or config.is_accurate:
                result = self.reference(state)
            else:
                result = self.approximate(state, config)
            state = HotspotInput(size=inputs.size, temperature=result, power=inputs.power)
        return result
