"""Tests for the offline half of the quality-aware loop: calibrate, select, run the selection."""

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.api.session import SAFETY_MARGIN, CalibrationEntry
from repro.apps import GaussianApp
from repro.core import ROWS1_LI, ROWS1_NN, TuningError


@pytest.fixture()
def calibration_images(flat_image_64, natural_image_64):
    return [flat_image_64, natural_image_64]


@pytest.fixture()
def engine(device):
    return PerforationEngine(device=device)


def _session(engine, error_budget):
    return engine.session(GaussianApp(), error_budget=error_budget)


class TestCalibration:
    def test_calibrate_produces_entries_sorted_by_speedup(self, calibration_images, engine):
        session = _session(engine, 0.05)
        entries = session.calibrate(calibration_images)
        assert len(entries) == 4  # the paper's four configurations
        speedups = [e.speedup for e in entries]
        assert speedups == sorted(speedups, reverse=True)
        assert all(e.mean_error <= e.max_error for e in entries)

    def test_calibration_required_before_select(self, engine):
        with pytest.raises(TuningError):
            _session(engine, 0.05).select()

    def test_empty_calibration_rejected(self, engine):
        with pytest.raises(TuningError):
            _session(engine, 0.05).calibrate([])

    def test_invalid_budget_rejected(self, calibration_images, engine):
        with pytest.raises(TuningError):
            _session(engine, 0.0).calibrate(calibration_images)


class TestSelection:
    def test_generous_budget_selects_fast_config(self, calibration_images, engine):
        session = _session(engine, 0.10).autotune(calibration_inputs=calibration_images)
        assert not session.selected.is_accurate

    def test_tiny_budget_falls_back_to_accurate(self, calibration_images, engine):
        session = _session(engine, 1e-9).autotune(calibration_inputs=calibration_images)
        assert session.selected.is_accurate

    def test_report_mentions_selection(self, calibration_images, engine):
        session = _session(engine, 0.10).autotune(calibration_inputs=calibration_images)
        report = session.report()
        assert "selected" in report
        assert "speedup" in report

    def test_selection_applies_the_safety_margin(self, engine):
        """A configuration qualifies when ``mean_error * (1 + SAFETY_MARGIN)``
        fits the budget; a budget just under that falls to the next rung."""
        session = _session(engine, 1.0)
        session.calibration = [  # fastest-first
            CalibrationEntry(ROWS1_NN, mean_error=0.04, max_error=0.08, speedup=2.0),
            CalibrationEntry(ROWS1_LI, mean_error=0.01, max_error=0.02, speedup=1.4),
        ]
        fits = 0.04 * (1.0 + SAFETY_MARGIN)
        assert session.with_error_budget(fits).select() == ROWS1_NN
        assert session.with_error_budget(np.nextafter(fits, 0.0)).select() == ROWS1_LI
        assert session.with_error_budget(0.04).select() == ROWS1_LI  # the margin matters
        assert session.with_error_budget(0.001).select().is_accurate


class TestExecution:
    """A tuned session runs its selection with :meth:`Session.run_compiled`;
    quality monitoring lives in :class:`repro.serve.PerforationServer`."""

    def test_tuned_session_runs_its_selection(
        self, calibration_images, natural_image_64, engine
    ):
        session = _session(engine, 0.10).autotune(calibration_inputs=calibration_images)
        output = session.run_compiled(natural_image_64)
        assert output.shape == natural_image_64.shape
        np.testing.assert_array_equal(
            output, engine.run_compiled(session.app, natural_image_64, session.selected)
        )

    def test_accurate_selection_runs_the_reference(
        self, calibration_images, natural_image_64, engine
    ):
        session = _session(engine, 1e-9).autotune(calibration_inputs=calibration_images)
        assert session.selected.is_accurate
        np.testing.assert_array_equal(
            session.run_compiled(natural_image_64),
            engine.reference(session.app, natural_image_64),
        )
