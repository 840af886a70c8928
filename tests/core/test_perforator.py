"""Tests for the compiler-level kernel perforator."""

import numpy as np
import pytest

from repro.apps import GaussianApp, InversionApp
from repro.clsim import Buffer, Executor, NDRange
from repro.core import (
    ApproximationConfig,
    ConfigurationError,
    COLS1,
    KernelPerforator,
    LINEAR_INTERPOLATION,
    ROWS1_NN,
    ROWS2_NN,
    STENCIL1_NN,
)
from repro.kernellang import parse_program


@pytest.fixture(scope="module")
def gaussian_perforator():
    return KernelPerforator(GaussianApp().kernel_source())


@pytest.fixture(scope="module")
def inversion_perforator():
    return KernelPerforator(InversionApp().kernel_source())


def run_perforated(perforated, image, local=(8, 8)):
    executor = Executor()
    kernel = perforated.executable()
    height, width = image.shape
    inb, outb = Buffer(image, "input"), Buffer(np.zeros_like(image), "output")
    executor.run(
        kernel,
        NDRange((width, height), local),
        {"input": inb, "output": outb, "width": width, "height": height},
    )
    return outb.array, inb.counters.reads


class TestAnalysisSurface:
    def test_halo_and_buffers(self, gaussian_perforator, inversion_perforator):
        assert gaussian_perforator.halo == 1
        assert gaussian_perforator.input_buffers == ["input"]
        assert inversion_perforator.halo == 0

    def test_reuse_factors(self, gaussian_perforator, inversion_perforator):
        assert gaussian_perforator.reuse_factors(16, 16)["input"] > 5
        assert inversion_perforator.reuse_factors(16, 16)["input"] == pytest.approx(1.0)


class TestPerforation:
    def test_accurate_returns_untransformed_kernel(self, gaussian_perforator):
        accurate = gaussian_perforator.accurate()
        assert "_kp_" not in accurate.source
        assert accurate.config.is_accurate

    def test_perforate_produces_valid_opencl(self, gaussian_perforator):
        perforated = gaussian_perforator.perforate(ROWS1_NN.with_work_group((8, 8)))
        assert "__local float _kp_input_tile" in perforated.source
        assert "barrier(CLK_LOCAL_MEM_FENCE);" in perforated.source
        # The emitted source must re-parse (valid OpenCL C subset).
        parse_program(perforated.source)
        assert perforated.notes

    def test_stencil_rejected_for_1x1_kernel(self, inversion_perforator):
        with pytest.raises(ConfigurationError):
            inversion_perforator.perforate(STENCIL1_NN.with_work_group((8, 8)))

    def test_column_scheme_not_supported_by_compiler_path(self, gaussian_perforator):
        config = ApproximationConfig(scheme=COLS1, work_group=(8, 8))
        with pytest.raises(ConfigurationError):
            gaussian_perforator.perforate(config)

    def test_functional_output_close_to_accurate(self, gaussian_perforator, natural_image_64):
        accurate_out, accurate_reads = run_perforated(
            gaussian_perforator.accurate(), natural_image_64
        )
        perforated_out, perforated_reads = run_perforated(
            gaussian_perforator.perforate(ROWS1_NN.with_work_group((8, 8))), natural_image_64
        )
        error = np.abs(perforated_out - accurate_out).mean() / 255.0
        assert error < 0.1
        assert perforated_reads < accurate_reads

    def test_rows2_reads_less_than_rows1(self, gaussian_perforator, natural_image_64):
        _, rows1_reads = run_perforated(
            gaussian_perforator.perforate(ROWS1_NN.with_work_group((8, 8))), natural_image_64
        )
        _, rows2_reads = run_perforated(
            gaussian_perforator.perforate(ROWS2_NN.with_work_group((8, 8))), natural_image_64
        )
        assert rows2_reads < rows1_reads

    def test_li_matches_or_beats_nn(self, gaussian_perforator, natural_image_64):
        accurate_out, _ = run_perforated(gaussian_perforator.accurate(), natural_image_64)
        nn_out, _ = run_perforated(
            gaussian_perforator.perforate(ROWS1_NN.with_work_group((8, 8))), natural_image_64
        )
        li_config = ApproximationConfig(
            scheme=ROWS1_NN.scheme, reconstruction=LINEAR_INTERPOLATION, work_group=(8, 8)
        )
        li_out, _ = run_perforated(gaussian_perforator.perforate(li_config), natural_image_64)
        assert np.abs(li_out - accurate_out).mean() <= np.abs(nn_out - accurate_out).mean() + 1e-9

    def test_optimize_with_local_memory_is_exact(self, gaussian_perforator, natural_image_64):
        accurate_out, accurate_reads = run_perforated(
            gaussian_perforator.accurate(), natural_image_64
        )
        optimised = gaussian_perforator.optimize_with_local_memory((8, 8))
        optimised_out, optimised_reads = run_perforated(optimised, natural_image_64)
        np.testing.assert_allclose(optimised_out, accurate_out, atol=1e-9)
        assert optimised_reads < accurate_reads

    def test_inversion_rows_perforation(self, inversion_perforator, natural_image_64):
        accurate_out, _ = run_perforated(inversion_perforator.accurate(), natural_image_64)
        perforated_out, reads = run_perforated(
            inversion_perforator.perforate(ROWS1_NN.with_work_group((8, 8))), natural_image_64
        )
        assert reads == natural_image_64.size // 2
        assert np.abs(perforated_out - accurate_out).mean() < 30.0
