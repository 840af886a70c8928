"""Tests for the quality-aware loop: calibrate, select, run under a budget."""

import pytest

from repro.api import PerforationEngine
from repro.apps import GaussianApp
from repro.core import TuningError


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


class TestExecution:
    def test_execute_with_monitoring(self, calibration_images, natural_image_64, engine):
        session = _session(engine, 0.10).autotune(calibration_inputs=calibration_images)
        record = session.run(natural_image_64, monitor=True)
        assert record.output.shape == natural_image_64.shape
        assert record.error is not None
        assert record.within_budget
        assert len(session.history) == 1

    def test_execute_without_monitoring_skips_reference(
        self, calibration_images, natural_image_64, engine
    ):
        session = _session(engine, 0.10).autotune(calibration_inputs=calibration_images)
        record = session.run(natural_image_64, monitor=False)
        assert record.error is None

    def test_budget_violation_demotes_configuration(
        self, calibration_images, pattern_image_64, engine
    ):
        """A pattern image blows the budget; the session must react."""
        session = _session(engine, 0.02).autotune(calibration_inputs=calibration_images)
        first_config = session.selected
        record = session.run(pattern_image_64, monitor=True)
        if not record.within_budget:
            assert session.selected.label != first_config.label or session.selected.is_accurate

    def test_accurate_selection_executes_reference(
        self, calibration_images, natural_image_64, engine
    ):
        session = _session(engine, 1e-9).autotune(calibration_inputs=calibration_images)
        record = session.run(natural_image_64)
        assert record.error == 0.0
        assert record.within_budget
