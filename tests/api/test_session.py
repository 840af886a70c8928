"""Tests for the fluent Session API (sweep / autotune / run)."""

import pytest

from repro.api import PerforationEngine
from repro.api import session as session_module
from repro.api.session import CalibrationEntry
from repro.core import ACCURATE_CONFIG, ROWS1_LI, ROWS1_NN, ROWS2_NN, TuningError
from repro.core.config import default_configurations
from repro.data import generate_image


@pytest.fixture()
def engine():
    return PerforationEngine()


@pytest.fixture()
def images():
    return [
        generate_image("flat", size=64, seed=14),
        generate_image("natural", size=64, seed=11),
    ]


class TestFluentSweep:
    def test_sweep_with_explicit_inputs(self, engine, images):
        sweep = engine.session(app="gaussian").sweep(images[1])
        assert {p.label for p in sweep.points} == {
            "Rows1:NN", "Rows2:NN", "Rows1:LI", "Stencil1:NN",
        }

    def test_sweep_without_inputs_uses_generated_sample(self, engine):
        sweep = engine.session(app="sobel3").sweep()
        assert len(sweep.points) == 4

    def test_hotspot_default_inputs(self, engine):
        sweep = engine.session(app="hotspot").sweep()
        assert all(p.speedup > 0 for p in sweep.points)

    def test_with_configs_restricts_sweep(self, engine, images):
        session = engine.session(app="gaussian").with_configs([ROWS1_NN])
        sweep = session.sweep(images[1])
        assert [p.label for p in sweep.points] == ["Rows1:NN"]

    def test_with_inputs_is_sticky(self, engine, images):
        session = engine.session(app="gaussian").with_inputs(images[1])
        first = session.sweep()
        second = session.sweep()
        assert [p.error for p in first.points] == [p.error for p in second.points]


class TestAutotune:
    def test_autotune_returns_session_and_selects(self, engine, images):
        session = engine.session(app="gaussian").autotune(
            error_budget=0.10, calibration_inputs=images
        )
        assert not session.selected.is_accurate
        assert len(session.calibration) == 4

    def test_entries_sorted_fastest_first(self, engine, images):
        session = engine.session(app="gaussian").autotune(
            error_budget=0.05, calibration_inputs=images
        )
        speedups = [e.speedup for e in session.calibration]
        assert speedups == sorted(speedups, reverse=True)

    def test_calibration_deterministic_in_input_order(self, engine, images):
        """Regression: the speedup used to come from the first sweep point."""
        forward = engine.session(app="gaussian").autotune(
            error_budget=0.05, calibration_inputs=images
        )
        backward = engine.session(app="gaussian").autotune(
            error_budget=0.05, calibration_inputs=list(reversed(images))
        )
        by_label_f = {e.config.label: e for e in forward.calibration}
        by_label_b = {e.config.label: e for e in backward.calibration}
        assert by_label_f.keys() == by_label_b.keys()
        for label, entry in by_label_f.items():
            assert entry.speedup == by_label_b[label].speedup
            assert entry.mean_error == by_label_b[label].mean_error

    def test_tiny_budget_falls_back_to_accurate(self, engine, images):
        session = engine.session(app="gaussian").autotune(
            error_budget=1e-9, calibration_inputs=images
        )
        assert session.selected.is_accurate

    def test_missing_budget_rejected(self, engine, images):
        with pytest.raises(TuningError):
            engine.session(app="gaussian").calibrate(images)

    def test_empty_calibration_rejected(self, engine):
        session = engine.session(app="gaussian", error_budget=0.05)
        with pytest.raises(TuningError):
            session.calibrate([])

    def test_select_before_calibrate_rejected(self, engine):
        with pytest.raises(TuningError):
            engine.session(app="gaussian", error_budget=0.05).select()


class TestRun:
    def test_run_with_monitoring(self, engine, images):
        session = engine.session(app="gaussian").autotune(
            error_budget=0.10, calibration_inputs=images
        )
        record = session.run(images[1], monitor=True)
        assert record.output.shape == images[1].shape
        assert record.error is not None
        assert record.within_budget
        assert len(session.history) == 1

    def test_run_without_monitoring_skips_reference(self, engine, images):
        session = engine.session(app="gaussian").autotune(
            error_budget=0.10, calibration_inputs=images
        )
        assert session.run(images[1]).error is None

    def test_accurate_selection_runs_reference(self, engine, images):
        session = engine.session(app="gaussian").autotune(
            error_budget=1e-9, calibration_inputs=images
        )
        record = session.run(images[1])
        assert record.error == 0.0
        assert record.within_budget

    def test_budget_violation_demotes(self, engine, images):
        pattern = generate_image("pattern", size=64, seed=13)
        session = engine.session(app="gaussian").autotune(
            error_budget=0.02, calibration_inputs=images
        )
        first = session.selected
        record = session.run(pattern, monitor=True)
        if not record.within_budget:
            assert session.selected.label != first.label or session.selected.is_accurate

    def test_violations_demote_one_rung_at_a_time(self, engine, images, monkeypatch):
        """Each violation steps to the fastest config with a strictly lower
        calibrated error (the controller's tighten rule), never further."""
        session = engine.session(app="gaussian", error_budget=0.06)
        session.calibration = [  # fastest-first
            CalibrationEntry(ROWS1_NN, mean_error=0.045, max_error=0.05, speedup=2.0),
            CalibrationEntry(ROWS2_NN, mean_error=0.03, max_error=0.04, speedup=1.6),
            CalibrationEntry(ROWS1_LI, mean_error=0.01, max_error=0.02, speedup=1.4),
        ]
        session.selected = session.select()
        # Every measured error blows the budget.
        monkeypatch.setattr(session_module, "compute_error", lambda *args: 1.0)
        walked = [session.selected]
        for _ in range(3):
            session.run(images[1], monitor=True)
            walked.append(session.selected)
        assert walked == [ROWS1_NN, ROWS2_NN, ROWS1_LI, ACCURATE_CONFIG]

    def test_report_mentions_selection(self, engine, images):
        session = engine.session(app="gaussian").autotune(
            error_budget=0.10, calibration_inputs=images
        )
        report = session.report()
        assert "selected" in report
        assert "speedup" in report


class TestSessionsShareEngineCache:
    def test_two_sessions_share_reference_cache(self, engine, images):
        app_configs = default_configurations(1)
        engine.session(app="gaussian").sweep(images[1], app_configs)
        before = engine.references.stats.misses
        engine.session(app="gaussian").sweep(images[1], app_configs)
        assert engine.references.stats.misses == before
