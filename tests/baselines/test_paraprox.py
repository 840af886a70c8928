"""Tests for the Paraprox output-approximation baseline."""

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.apps import GaussianApp, InversionApp, MedianApp
from repro.baselines import (
    PARAPROX_SCHEMES,
    ParaproxScheme,
    approximate_output,
    evaluate_all_schemes,
    evaluate_paraprox,
    paraprox_output,
    paraprox_profile,
)
from repro.core import ConfigurationError, ROWS1_NN


class TestScheme:
    def test_periods(self):
        assert ParaproxScheme("rows", 1).period == 3
        assert ParaproxScheme("rows", 2).period == 5
        assert ParaproxScheme("center", 1).computed_fraction == pytest.approx(1 / 9)
        assert ParaproxScheme("cols", 2).computed_fraction == pytest.approx(1 / 5)

    def test_labels_and_describe(self):
        assert ParaproxScheme("rows", 1).label == "Rows1"
        assert ParaproxScheme("center", 2).label == "Center2"
        assert "copy" in ParaproxScheme("cols", 1).describe()

    def test_invalid_kind_and_level(self):
        with pytest.raises(ConfigurationError):
            ParaproxScheme("diagonal", 1)
        with pytest.raises(ConfigurationError):
            ParaproxScheme("rows", 3)

    def test_six_figure10_schemes(self):
        assert len(PARAPROX_SCHEMES) == 6
        assert len({s.label for s in PARAPROX_SCHEMES}) == 6


class TestApproximateOutput:
    def test_row_replication(self):
        output = np.arange(36, dtype=np.float64).reshape(6, 6)
        approx = approximate_output(output, ParaproxScheme("rows", 1))
        np.testing.assert_array_equal(approx[0], output[0])
        np.testing.assert_array_equal(approx[1], output[0])
        np.testing.assert_array_equal(approx[2], output[0])
        np.testing.assert_array_equal(approx[3], output[3])

    def test_col_replication(self):
        output = np.arange(36, dtype=np.float64).reshape(6, 6)
        approx = approximate_output(output, ParaproxScheme("cols", 1))
        np.testing.assert_array_equal(approx[:, 1], output[:, 0])
        np.testing.assert_array_equal(approx[:, 3], output[:, 3])

    def test_center_replicates_blocks(self):
        output = np.arange(36, dtype=np.float64).reshape(6, 6)
        approx = approximate_output(output, ParaproxScheme("center", 1))
        assert (approx[0:3, 0:3] == output[0, 0]).all()
        assert (approx[3:6, 3:6] == output[3, 3]).all()

    def test_computed_rows_unchanged(self):
        output = np.random.default_rng(0).random((12, 12))
        approx = approximate_output(output, ParaproxScheme("rows", 2))
        np.testing.assert_array_equal(approx[::5], output[::5])

    def test_only_2d_supported(self):
        with pytest.raises(ConfigurationError):
            approximate_output(np.zeros(10), ParaproxScheme("rows", 1))

    def test_paraprox_output_wrapper(self, natural_image_64):
        app = InversionApp()
        approx = paraprox_output(app, natural_image_64, ParaproxScheme("rows", 1))
        assert approx.shape == natural_image_64.shape


class TestProfilesAndEvaluation:
    def test_profile_reduces_compute_but_not_output(self, natural_image_64):
        app = GaussianApp()
        profile, ndrange = paraprox_profile(app, ParaproxScheme("rows", 1), (64, 64))
        assert profile.flops_per_item < app.flops_per_item
        store = [t for t in profile.traffic if t.is_store]
        assert store and store[0].elements_per_group() == 16 * 16

    def test_profile_invalid_work_group(self, natural_image_64):
        with pytest.raises(ConfigurationError):
            paraprox_profile(GaussianApp(), ParaproxScheme("rows", 1), (60, 60))

    def test_evaluate_paraprox_result(self, natural_image_128, device):
        result = evaluate_paraprox(
            GaussianApp(), natural_image_128, ParaproxScheme("rows", 1), device=device
        )
        assert result.error > 0
        assert result.speedup > 0
        assert "paraprox" in result.describe()

    def test_level2_has_larger_error(self, natural_image_128, device):
        app = GaussianApp()
        level1 = evaluate_paraprox(app, natural_image_128, ParaproxScheme("rows", 1), device=device)
        level2 = evaluate_paraprox(app, natural_image_128, ParaproxScheme("rows", 2), device=device)
        assert level2.error > level1.error

    def test_cols_slower_than_rows(self, natural_image_128, device):
        """The paper: Cols aligns badly with the memory layout (Figure 10b)."""
        app = InversionApp()
        rows = evaluate_paraprox(app, natural_image_128, ParaproxScheme("rows", 1), device=device)
        cols = evaluate_paraprox(app, natural_image_128, ParaproxScheme("cols", 1), device=device)
        assert cols.speedup < rows.speedup

    def test_evaluate_all_schemes(self, natural_image_128, device):
        results = evaluate_all_schemes(MedianApp(), natural_image_128, device=device)
        assert len(results) == 6
        assert len({r.label for r in results}) == 6

    def test_our_error_lower_than_paraprox_at_similar_or_better_speedup(
        self, natural_image_128, device
    ):
        """The paper's central comparison (Figure 10a, Gaussian)."""
        app = GaussianApp()
        ours = PerforationEngine(device=device).evaluate(app, natural_image_128, ROWS1_NN)
        paraprox = evaluate_paraprox(
            app, natural_image_128, ParaproxScheme("rows", 1), device=device
        )
        assert ours.speedup >= paraprox.speedup
        assert ours.error <= paraprox.error
