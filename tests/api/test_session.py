"""Tests for the fluent Session API (sweep / autotune / select)."""

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.api.session import calibrate_configs, default_inputs
from repro.core import ROWS1_NN, TuningError
from repro.core.config import default_configurations
from repro.data import generate_image
from repro.data.hotspot import HotspotInput


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

    def test_default_inputs_are_one_deterministic_sample(self, engine):
        """``default_inputs(app)`` is a fixed 256x256 sample (a Hotspot
        instance for hotspot, a natural image otherwise), and it is what a
        session without inputs sweeps."""
        image = default_inputs(engine.resolve_app("gaussian"))
        assert image.shape == (256, 256)
        np.testing.assert_array_equal(image, default_inputs(engine.resolve_app("sobel3")))
        grid = default_inputs(engine.resolve_app("hotspot"))
        assert isinstance(grid, HotspotInput) and grid.size == 256
        again = default_inputs(engine.resolve_app("hotspot"))
        np.testing.assert_array_equal(grid.temperature, again.temperature)
        np.testing.assert_array_equal(grid.power, again.power)
        session = engine.session(app="gaussian").with_configs([ROWS1_NN])
        session.sweep()
        np.testing.assert_array_equal(session.inputs, image)

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

    def test_calibrate_configs_rejects_empty_inputs(self, engine):
        app = engine.resolve_app("gaussian")
        with pytest.raises(TuningError, match="at least one input"):
            calibrate_configs(engine, app, [], default_configurations(app.halo))

    def test_autotune_is_calibrate_then_select(self, engine, images):
        tuned = engine.session(app="gaussian").autotune(
            error_budget=0.05, calibration_inputs=images
        )
        session = PerforationEngine().session(app="gaussian", error_budget=0.05)
        assert tuned.calibration == session.calibrate(images)
        assert tuned.selected == session.selected == session.select()

    def test_select_before_calibrate_rejected(self, engine):
        with pytest.raises(TuningError):
            engine.session(app="gaussian", error_budget=0.05).select()

    def test_bit_identity_holds_for_label_colliding_configs(self, engine, images):
        """Configs differing only in work group share a figure label;
        calibration keeps them as separate entries, each bit-identical to
        calibrating it alone."""
        configs = [ROWS1_NN.with_work_group((8, 8)), ROWS1_NN.with_work_group((32, 8))]
        session = engine.session("gaussian", error_budget=0.05)
        entries = session.with_configs(configs).calibrate([images[1]])
        assert {entry.config for entry in entries} == set(configs)
        marked = [line for line in session.report().splitlines() if line.startswith(" * ")]
        assert len(marked) == 1  # the selected entry, not every entry sharing its label
        for entry in entries:
            [alone] = (
                PerforationEngine()
                .session("gaussian", error_budget=0.05, configs=[entry.config])
                .calibrate([images[1]])
            )
            assert alone == entry

    def test_report_mentions_selection(self, engine, images):
        session = engine.session(app="gaussian").autotune(
            error_budget=0.10, calibration_inputs=images
        )
        report = session.report()
        assert "selected" in report
        assert "speedup" in report
        assert "margin 25%" in report


class TestSessionsShareEngineCache:
    def test_two_sessions_share_reference_cache(self, engine, images):
        app_configs = default_configurations(1)
        engine.session(app="gaussian").sweep(images[1], app_configs)
        before = engine.references.stats.misses
        engine.session(app="gaussian").sweep(images[1], app_configs)
        assert engine.references.stats.misses == before

    def test_second_autotune_computes_no_new_references_or_timings(self, engine, images):
        first = engine.session(app="gaussian").autotune(
            error_budget=0.05, calibration_inputs=images
        )
        references, timings = engine.references.stats.misses, engine.timings.stats.misses
        second = engine.session(app="gaussian").autotune(
            error_budget=0.05, calibration_inputs=images
        )
        assert engine.references.stats.misses == references
        assert engine.timings.stats.misses == timings
        assert second.calibration == first.calibration
        assert second.selected == first.selected
