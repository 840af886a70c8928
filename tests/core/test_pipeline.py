"""Tests for the evaluation pipeline (error + modelled speedup)."""

import pytest

from repro.api import PerforationEngine
from repro.apps import GaussianApp, InversionApp, Sobel5App
from repro.core import (
    ACCURATE_CONFIG,
    ConfigurationError,
    ROWS1_NN,
    ROWS2_NN,
    STENCIL1_NN,
)
from repro.core.pipeline import baseline_config_for


@pytest.fixture()
def engine(device):
    return PerforationEngine(device=device)


class TestEvaluateConfiguration:
    def test_result_fields(self, natural_image_128, engine):
        result = engine.evaluate(GaussianApp(), natural_image_128, ROWS1_NN)
        assert result.app_name == "gaussian"
        assert result.error > 0
        assert result.speedup > 1.0
        assert result.baseline_time_s > result.approx_time_s
        assert result.runtime_ms == pytest.approx(result.approx_time_s * 1e3)
        assert "gaussian" in result.describe()

    def test_accurate_configuration_has_zero_error(self, natural_image_128, engine):
        result = engine.evaluate(GaussianApp(), natural_image_128, ACCURATE_CONFIG)
        assert result.error == pytest.approx(0.0, abs=1e-12)

    def test_reference_can_be_supplied(self, natural_image_128, engine):
        app = GaussianApp()
        reference = app.reference(natural_image_128)
        result = engine.evaluate(app, natural_image_128, ROWS1_NN, reference=reference)
        assert result.error > 0

    def test_invalid_config_rejected(self, natural_image_128, engine):
        with pytest.raises(ConfigurationError):
            engine.evaluate(InversionApp(), natural_image_128, STENCIL1_NN)

    def test_more_aggressive_scheme_is_faster(self, natural_image_128, engine):
        app = GaussianApp()
        rows1 = engine.evaluate(app, natural_image_128, ROWS1_NN)
        rows2 = engine.evaluate(app, natural_image_128, ROWS2_NN)
        assert rows2.speedup >= rows1.speedup
        assert rows2.error >= rows1.error

    def test_sobel5_gets_largest_speedup(self, natural_image_128, engine):
        gaussian = engine.evaluate(GaussianApp(), natural_image_128, STENCIL1_NN)
        sobel5 = engine.evaluate(Sobel5App(), natural_image_128, STENCIL1_NN)
        assert sobel5.speedup > gaussian.speedup


class TestEvaluateMany:
    def test_shared_reference(self, natural_image_128, engine):
        results = engine.evaluate_many(GaussianApp(), natural_image_128, [ROWS1_NN, STENCIL1_NN])
        assert len(results) == 2
        assert {r.config.label for r in results} == {"Rows1:NN", "Stencil1:NN"}


class TestEvaluateDataset:
    def test_summary_and_speedup(self, natural_image_64, flat_image_64, pattern_image_64, engine):
        dataset = [natural_image_64, flat_image_64, pattern_image_64]
        result = engine.evaluate_dataset(GaussianApp(), dataset, ROWS1_NN)
        assert result.summary.count == 3
        assert len(result.errors) == 3
        assert result.speedup > 1.0
        assert result.summary.minimum <= result.summary.median <= result.summary.maximum
        assert "gaussian" in result.describe()

    def test_flat_images_have_smallest_error(self, natural_image_64, flat_image_64, pattern_image_64, engine):
        dataset = [flat_image_64, natural_image_64, pattern_image_64]
        result = engine.evaluate_dataset(GaussianApp(), dataset, ROWS1_NN)
        flat_error, natural_error, pattern_error = result.errors
        assert flat_error < natural_error < pattern_error

    def test_empty_dataset_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.evaluate_dataset(GaussianApp(), [], ROWS1_NN)


class TestTimingHelpers:
    def test_timing_for(self, natural_image_128, engine):
        app = GaussianApp()
        breakdown = engine.timing(app, ROWS1_NN, app.global_size(natural_image_128))
        assert breakdown.total_time_s > 0

    def test_baseline_config(self):
        app = GaussianApp()
        config = baseline_config_for(app)
        assert config.is_accurate
        assert config.work_group == app.baseline_work_group
