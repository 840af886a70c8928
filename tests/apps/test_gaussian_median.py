"""Application-specific tests: Gaussian and Median."""

import numpy as np
import pytest
from scipy import ndimage

from repro.apps import GAUSSIAN_WEIGHTS, GaussianApp, MedianApp
from repro.core import ROWS1_NN, STENCIL1_NN, compute_error


pytestmark = pytest.mark.slow


class TestGaussian:
    def test_weights_are_normalised(self):
        assert GAUSSIAN_WEIGHTS.sum() == pytest.approx(1.0)
        assert GAUSSIAN_WEIGHTS.shape == (3, 3)

    def test_reference_matches_scipy(self, natural_image_64):
        app = GaussianApp()
        expected = ndimage.correlate(natural_image_64, GAUSSIAN_WEIGHTS, mode="nearest")
        np.testing.assert_allclose(app.reference(natural_image_64), expected, atol=1e-9)

    def test_blur_reduces_variance(self, natural_image_64):
        app = GaussianApp()
        blurred = app.reference(natural_image_64)
        assert blurred.var() < natural_image_64.var()

    def test_constant_image_is_fixed_point(self):
        app = GaussianApp()
        constant = np.full((32, 32), 42.0)
        np.testing.assert_allclose(app.reference(constant), constant)
        np.testing.assert_allclose(app.approximate(constant, ROWS1_NN), constant)

    def test_perforation_error_ordering_matches_figure8(self, natural_image_128):
        app = GaussianApp()
        reference = app.reference(natural_image_128)
        stencil = compute_error(
            reference, app.approximate(natural_image_128, STENCIL1_NN), app.error_metric
        )
        rows1 = compute_error(
            reference, app.approximate(natural_image_128, ROWS1_NN), app.error_metric
        )
        assert stencil < rows1
        assert stencil < 0.01  # the paper: "always less than 1%"


class TestMedian:
    def test_reference_matches_scipy_median_filter(self, natural_image_64):
        app = MedianApp()
        expected = ndimage.median_filter(natural_image_64, size=3, mode="nearest")
        np.testing.assert_allclose(app.reference(natural_image_64), expected, atol=1e-9)

    def test_removes_salt_and_pepper_noise(self, rng):
        app = MedianApp()
        clean = np.full((64, 64), 100.0)
        noisy = clean.copy()
        positions = rng.choice(64 * 64, size=200, replace=False)
        noisy.flat[positions[:100]] = 255.0
        noisy.flat[positions[100:]] = 0.0
        filtered = app.reference(noisy)
        assert np.abs(filtered - clean).mean() < np.abs(noisy - clean).mean() * 0.2

    def test_metadata_matches_paper(self):
        app = MedianApp()
        assert app.domain == "Medical imaging"
        assert app.baseline_uses_local_memory  # "already highly optimised"
        assert app.private_accesses_per_item > 0

    def test_median_baseline_speedup_smaller_than_gaussian(self, natural_image_128, device):
        """The paper: Median's baseline is already optimised, so its speedup
        is the smallest of the stencil apps."""
        from repro.api import PerforationEngine

        engine = PerforationEngine(device=device)
        gaussian = engine.evaluate(GaussianApp(), natural_image_128, STENCIL1_NN)
        median = engine.evaluate(MedianApp(), natural_image_128, STENCIL1_NN)
        assert median.speedup < gaussian.speedup
