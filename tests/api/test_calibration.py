"""Tests for calibration: ``calibrate_configs`` builds a ladder, ``select`` picks a rung."""

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.api.calibration import (
    SAFETY_MARGIN,
    CalibrationEntry,
    calibrate_configs,
    default_inputs,
    select,
)
from repro.core import ROWS1_LI, ROWS1_NN, STENCIL1_NN, TuningError
from repro.core.config import ACCURATE_CONFIG, default_configurations
from repro.core.quality import compute_error
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


def _calibrate(engine, images, configs=None):
    app = engine.resolve_app("gaussian")
    if configs is None:
        configs = default_configurations(app.halo)
    return calibrate_configs(engine, app, images, configs)


class TestCalibrateConfigs:
    def test_entries_sorted_fastest_first(self, engine, images):
        entries = _calibrate(engine, images)
        assert len(entries) == 4  # the paper's four configurations
        speedups = [e.speedup for e in entries]
        assert speedups == sorted(speedups, reverse=True)
        assert all(e.mean_error <= e.max_error for e in entries)

    def test_calibration_deterministic_in_input_order(self, engine, images):
        """Regression: the speedup used to come from the first sweep point."""
        forward = _calibrate(engine, images)
        backward = _calibrate(engine, list(reversed(images)))
        by_label_f = {e.config.label: e for e in forward}
        by_label_b = {e.config.label: e for e in backward}
        assert by_label_f.keys() == by_label_b.keys()
        for label, entry in by_label_f.items():
            assert entry.speedup == by_label_b[label].speedup
            assert entry.mean_error == by_label_b[label].mean_error

    def test_label_colliding_configs_calibrate_apart(self, engine, images):
        """Configs differing only in work group share a figure label;
        calibration keeps them as separate entries, each bit-identical to
        calibrating it alone."""
        configs = [ROWS1_NN.with_work_group((8, 8)), ROWS1_NN.with_work_group((32, 8))]
        entries = _calibrate(engine, [images[1]], configs)
        assert {entry.config for entry in entries} == set(configs)
        for entry in entries:
            [alone] = _calibrate(PerforationEngine(), [images[1]], [entry.config])
            assert alone == entry

    def test_entry_statistics_reduce_the_per_input_errors(self, engine, images):
        """Each entry's error is the mean and maximum of its per-input sweep
        errors; its speedup is the timing model's at the first input's size."""
        app = engine.resolve_app("gaussian")
        entries = _calibrate(engine, images)
        sweeps = [engine.sweep(app, image) for image in images]
        baseline = engine.baseline_timing(app, app.global_size(images[0])).total_time_s
        for entry in entries:
            errors = [p.error for sweep in sweeps for p in sweep.points if p.config == entry.config]
            assert len(errors) == len(images)
            assert entry.mean_error == float(np.mean(errors))
            assert entry.max_error == float(np.max(errors))
            timing = engine.timing(app, entry.config, app.global_size(images[0]))
            assert entry.speedup == baseline / timing.total_time_s

    def test_restricted_configs_calibrate_only_those(self, engine, images):
        entries = _calibrate(engine, images, [ROWS1_NN, STENCIL1_NN])
        assert len(entries) == 2
        assert {entry.config for entry in entries} == {ROWS1_NN, STENCIL1_NN}

    @pytest.mark.parametrize("app_name", ["sobel3", "inversion", "hotspot"])
    def test_default_inputs_calibrate_every_default_configuration(self, engine, app_name):
        """Calibrating on ``default_inputs(app)`` alone — what a controller
        does for an application without calibration inputs — gives one
        entry per default configuration of the app's halo."""
        app = engine.resolve_app(app_name)
        configs = default_configurations(app.halo)
        entries = calibrate_configs(engine, app, [default_inputs(app)], configs)
        assert {entry.config for entry in entries} == set(configs)
        assert all(entry.speedup > 0 for entry in entries)
        assert all(entry.mean_error == entry.max_error for entry in entries)  # one input

    def test_calibration_is_independent_of_the_worker_count(self, engine, images):
        with PerforationEngine(workers=2) as parallel:
            assert _calibrate(parallel, images) == _calibrate(engine, images)

    def test_empty_inputs_rejected(self, engine):
        with pytest.raises(TuningError, match="at least one input"):
            _calibrate(engine, [])

    def test_second_calibration_computes_no_new_references_or_timings(self, engine, images):
        first = _calibrate(engine, images)
        references, timings = engine.references.stats.misses, engine.timings.stats.misses
        second = _calibrate(engine, images)
        assert engine.references.stats.misses == references
        assert engine.timings.stats.misses == timings
        assert second == first

    def test_default_inputs_are_one_deterministic_sample(self, engine):
        """``default_inputs(app)`` is a fixed 256x256 sample: a Hotspot
        instance for hotspot, a natural image otherwise."""
        image = default_inputs(engine.resolve_app("gaussian"))
        assert image.shape == (256, 256)
        np.testing.assert_array_equal(image, default_inputs(engine.resolve_app("sobel3")))
        grid = default_inputs(engine.resolve_app("hotspot"))
        assert isinstance(grid, HotspotInput) and grid.size == 256
        again = default_inputs(engine.resolve_app("hotspot"))
        np.testing.assert_array_equal(grid.temperature, again.temperature)
        np.testing.assert_array_equal(grid.power, again.power)


class TestSelect:
    def test_select_applies_the_safety_margin(self):
        """A rung qualifies when ``mean_error * (1 + SAFETY_MARGIN)`` fits the
        budget; a budget just under that falls to the next rung."""
        ladder = [  # fastest-first
            CalibrationEntry(ROWS1_NN, mean_error=0.04, max_error=0.08, speedup=2.0),
            CalibrationEntry(ROWS1_LI, mean_error=0.01, max_error=0.02, speedup=1.4),
        ]
        fits = 0.04 * (1.0 + SAFETY_MARGIN)
        assert select(ladder, fits) is ladder[0]
        assert select(ladder, np.nextafter(fits, 0.0)) is ladder[1]
        assert select(ladder, 0.04) is ladder[1]  # the margin matters
        assert select(ladder, 0.001) is None

    def test_calibrated_selection_or_accurate_fallback(self, engine, images):
        """A generous budget picks the fastest admissible calibrated rung; a
        tiny one finds none, unless the ladder ends in the accurate rung."""
        entries = _calibrate(engine, images)
        rung = select(entries, 0.10)
        assert rung is next(e for e in entries if e.admissible(0.10))
        assert not rung.config.is_accurate
        assert select(entries, 1e-9) is None
        accurate = CalibrationEntry(ACCURATE_CONFIG, mean_error=0.0, max_error=0.0, speedup=1.0)
        assert select([*entries, accurate], 1e-9) is accurate

    def test_empty_ladder_selects_nothing(self):
        assert select([], 0.05) is None

    def test_select_prefers_the_fastest_admissible_rung_over_the_most_accurate(self):
        ladder = [  # fastest-first; the slower rung is more accurate
            CalibrationEntry(ROWS1_NN, mean_error=0.03, max_error=0.05, speedup=2.0),
            CalibrationEntry(ROWS1_LI, mean_error=0.001, max_error=0.002, speedup=1.4),
        ]
        assert select(ladder, 0.05) is ladder[0]

    @pytest.mark.parametrize("budget", [0.0, -0.05])
    def test_non_positive_budget_rejected(self, budget):
        ladder = [CalibrationEntry(ROWS1_NN, mean_error=0.0, max_error=0.0, speedup=2.0)]
        with pytest.raises(TuningError, match="must be positive"):
            select(ladder, budget)


class TestRunTheSelection:
    """A caller runs the selected rung, or the accurate configuration when
    none fits, on the compiled path (:meth:`PerforationEngine.run_compiled`)."""

    @pytest.fixture()
    def compiled(self):
        return PerforationEngine(backend="codegen")

    def test_selected_rung_reproduces_its_calibrated_error_when_compiled(self, compiled):
        app = compiled.resolve_app("gaussian")
        image = generate_image("natural", size=32, seed=11)
        ladder = calibrate_configs(compiled, app, [image], default_configurations(app.halo))
        rung = select(ladder, 0.10)
        assert rung is not None and not rung.config.is_accurate
        output = compiled.run_compiled(app, image, rung.config)
        assert output.shape == image.shape
        reference = compiled.reference(app, image)
        assert compute_error(reference, output, app.error_metric) == rung.mean_error

    def test_accurate_fallback_runs_the_reference(self, compiled):
        app = compiled.resolve_app("gaussian")
        image = generate_image("natural", size=32, seed=11)
        ladder = calibrate_configs(compiled, app, [image], default_configurations(app.halo))
        assert select(ladder, 1e-9) is None
        reference = compiled.reference(app, image)
        np.testing.assert_array_equal(compiled.run_compiled(app, image, ACCURATE_CONFIG), reference)
        np.testing.assert_array_equal(compiled.run_compiled(app, image), reference)
