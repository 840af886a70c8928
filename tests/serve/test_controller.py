"""Online controller: ladder construction, tighten/loosen policy."""

import pytest

from repro.api import CalibrationEntry, PerforationEngine
from repro.api.calibration import calibrate_configs, select
from repro.core.config import (
    ACCURATE_CONFIG,
    ROWS1_LI,
    ROWS1_NN,
    ROWS2_NN,
    default_configurations,
)
from repro.core.errors import TuningError
from repro.data import generate_image
from repro.obs import trace as obs_trace
from repro.serve import OnlineController
from repro.serve import controller as controller_module
from repro.serve.controller import EWMA_ALPHA, LOOSEN_HEADROOM, MIN_DWELL


@pytest.fixture(scope="module")
def engine():
    return PerforationEngine()


def _calibrate(xs):
    """``calibrate_configs`` of gaussian's default configurations on a fresh engine."""
    engine = PerforationEngine()
    app = engine.resolve_app("gaussian")
    return calibrate_configs(engine, app, xs, default_configurations(app.halo))


def _fake_controller(engine):
    """Controller with an injected ladder (no calibration sweep)."""
    controller = OnlineController(engine)
    controller.ladders["fake"] = [
        CalibrationEntry(config=ROWS2_NN, mean_error=0.04, max_error=0.04, speedup=3.0),
        CalibrationEntry(config=ROWS1_NN, mean_error=0.02, max_error=0.02, speedup=2.0),
        CalibrationEntry(config=ACCURATE_CONFIG, mean_error=0.0, max_error=0.0, speedup=1.0),
    ]
    return controller


class TestLadder:
    def test_calibrated_ladder_ends_accurate(self, engine):
        controller = OnlineController(
            engine,
            calibration_inputs={"gaussian": [generate_image("natural", size=32, seed=3)]},
        )
        ladder = controller.ladder("gaussian")
        assert ladder[-1].config.label == "Accurate"
        assert ladder[-1].mean_error == 0.0
        # fastest-first among the calibrated rungs
        speeds = [entry.speedup for entry in ladder[:-1]]
        assert speeds == sorted(speeds, reverse=True)
        # computed once
        assert controller.ladder("gaussian") is ladder
        assert controller.calibrated == 1

    def test_ladder_is_the_calibration_plus_the_accurate_rung(self):
        """The controller's ladder is ``calibrate_configs`` of the default
        configurations, bit for bit, plus the accurate rung; each
        calibration records one ``calibration.calibrate`` span."""
        xs = [
            generate_image("natural", size=32, seed=3),
            generate_image("flat", size=32, seed=4),
        ]
        tracer = obs_trace.install(process="test-controller")
        try:
            ladder = OnlineController(PerforationEngine(), {"gaussian": xs}).ladder("gaussian")
            from_controller = [s for s in tracer.spans() if s.name == "calibration.calibrate"]
            entries = _calibrate(xs)
            spans = [s for s in tracer.spans() if s.name == "calibration.calibrate"]
        finally:
            obs_trace.disable()

        def bits(rungs):
            return [
                (e.config.key, e.mean_error.hex(), e.max_error.hex(), e.speedup.hex())
                for e in rungs
            ]

        assert bits(ladder[:-1]) == bits(entries)
        assert ladder[-1] == CalibrationEntry(ACCURATE_CONFIG, 0.0, 0.0, 1.0)
        assert len(from_controller) == 1 and len(spans) == 2
        for span in spans:
            assert span.category == "calibrate"
            assert span.attrs == {"app": "gaussian", "configs": 4, "inputs": 2}

    def test_seeded_ladders_are_not_counted_as_calibrated(self, engine):
        controller = _fake_controller(engine)
        assert controller.ladder("fake")[-1].config == ACCURATE_CONFIG
        assert controller.calibrated == 0

    def test_seeded_ladder_makes_the_calibrated_choices(self):
        """A ladder calibrated by one controller and seeded into another (as
        a fleet front-end ships it to its workers) selects exactly what the
        calibrating controller selects, at every budget."""
        xs = [generate_image("natural", size=32, seed=3)]
        calibrating = OnlineController(PerforationEngine(), {"gaussian": xs})
        seeded = OnlineController(PerforationEngine())
        seeded.ladders["gaussian"] = calibrating.ladder("gaussian")
        for budget in (1e-6, 0.005, 0.02, 0.05, 0.2, 1.0):
            assert seeded.choose("gaussian", budget) == calibrating.choose("gaussian", budget)
        assert seeded.calibrated == 0 and calibrating.calibrated == 1

    def test_seeded_ladder_needs_no_kernel_evaluations(self, monkeypatch):
        xs = [generate_image("natural", size=32, seed=3)]
        ladder = OnlineController(PerforationEngine(), {"gaussian": xs}).ladder("gaussian")
        engine = PerforationEngine()
        app_type = type(engine.resolve_app("gaussian"))

        def boom(*args, **kwargs):  # pragma: no cover - the point is it never runs
            raise AssertionError("a seeded ladder must not evaluate kernels")

        monkeypatch.setattr(app_type, "approximate", boom)
        monkeypatch.setattr(app_type, "reference", boom)
        controller = OnlineController(engine, {"gaussian": xs})
        controller.ladders["gaussian"] = ladder
        assert controller.choose("gaussian", 1.0) == ladder[0].config  # every rung admissible
        controller.observe("gaussian", 1.0, 2.0)
        assert controller.choose("gaussian", 1.0) != ladder[0].config
        assert controller.ladder("gaussian") is ladder

    def test_default_calibration_inputs_are_default_inputs(self, monkeypatch):
        """An application without calibration inputs calibrates on
        ``default_inputs(app)``."""
        small = generate_image("natural", size=32, seed=9)
        asked = []

        def sample(app):
            asked.append(app.name)
            return small

        monkeypatch.setattr(controller_module, "default_inputs", sample)
        ladder = OnlineController(PerforationEngine()).ladder("gaussian")
        assert ladder[:-1] == _calibrate([small])
        assert asked == ["gaussian"]

    def test_initial_choice_is_first_admissible(self, engine):
        controller = _fake_controller(engine)
        # 0.04 * 1.25 = 0.05 <= 0.06 → the fastest rung qualifies
        assert controller.choose("fake", 0.06).label == "Rows2:NN"
        # only ROWS1_NN (0.02 * 1.25 = 0.025) fits a 0.03 budget
        assert controller.choose("fake", 0.03).label == "Rows1:NN"
        # nothing admissible → accurate
        assert controller.choose("fake", 0.001).label == "Accurate"

    def test_budget_must_be_positive(self, engine):
        controller = _fake_controller(engine)
        with pytest.raises(TuningError):
            controller.choose("fake", 0.0)

    def test_first_rung_is_select_over_the_calibrated_ladder(self, engine):
        controller = OnlineController(
            engine,
            calibration_inputs={"gaussian": [generate_image("natural", size=32, seed=3)]},
        )
        ladder = controller.ladder("gaussian")
        for budget in (1e-9, 0.01, 0.03, 0.05, 0.10):
            assert controller.choose("gaussian", budget) == select(ladder, budget).config

    def test_seeded_ladder_without_an_admissible_rung_starts_on_its_last(self, engine):
        """A seeded ladder need not end in the accurate rung (a tuner's does
        not); when nothing fits, a stream starts on its most accurate rung."""
        controller = OnlineController(engine)
        controller.ladders["tuned"] = [
            CalibrationEntry(config=ROWS2_NN, mean_error=0.04, max_error=0.04, speedup=3.0),
            CalibrationEntry(config=ROWS1_LI, mean_error=0.01, max_error=0.01, speedup=1.5),
        ]
        assert controller.choose("tuned", 0.001) == ROWS1_LI
        assert controller.choose("tuned", 0.06) == ROWS2_NN


class TestAdaptation:
    def test_tightens_when_error_drifts_above_budget(self, engine):
        controller = _fake_controller(engine)
        assert controller.choose("fake", 0.06).label == "Rows2:NN"
        controller.observe("fake", 0.06, 0.09)  # ewma jumps above budget
        assert controller.choose("fake", 0.06).label == "Rows1:NN"
        controller.observe("fake", 0.06, 0.09)
        assert controller.choose("fake", 0.06).label == "Accurate"
        # the accurate rung cannot tighten further
        controller.observe("fake", 0.06, 0.09)
        assert controller.choose("fake", 0.06).label == "Accurate"

    def test_ewma_smoothing_delays_tightening(self, engine):
        controller = _fake_controller(engine)
        controller.choose("fake", 0.06)
        controller.observe("fake", 0.06, 0.07)  # one bad request: ewma 0.07 > budget?
        # first observation seeds the EWMA directly, so this tightens…
        assert controller.choose("fake", 0.06).label == "Rows1:NN"
        # …but after a switch the window is fresh: one small error keeps it
        controller.observe("fake", 0.06, 0.01)
        controller.observe("fake", 0.06, 0.08)  # ewma = 0.25*0.08 + 0.75*0.01 < 0.06
        assert controller.choose("fake", 0.06).label == "Rows1:NN"

    def test_loosens_with_headroom_after_dwell(self, engine):
        controller = _fake_controller(engine)
        assert controller.choose("fake", 0.06).label == "Rows2:NN"
        controller.observe("fake", 0.06, 0.09)  # tighten to Rows1:NN
        assert controller.choose("fake", 0.06).label == "Rows1:NN"
        small = 0.5 * LOOSEN_HEADROOM * 0.06  # well inside the headroom
        for _ in range(MIN_DWELL - 1):
            controller.observe("fake", 0.06, small)
        # dwell not reached yet
        assert controller.choose("fake", 0.06).label == "Rows1:NN"
        controller.observe("fake", 0.06, small)
        # MIN_DWELL observations with ewma < LOOSEN_HEADROOM * budget → back
        # to the faster rung
        assert controller.choose("fake", 0.06).label == "Rows2:NN"
        assert controller.snapshot()["fake@0.06"]["loosened"] == 1

    def test_ewma_weights_the_newest_error_by_alpha(self, engine):
        """After a first error of 0.05 on a 0.06 budget, the second error
        that brings the EWMA exactly to the budget is
        ``(0.06 - (1 - EWMA_ALPHA) * 0.05) / EWMA_ALPHA``: just below it the
        stream holds, just above it tightens."""
        threshold = (0.06 - (1 - EWMA_ALPHA) * 0.05) / EWMA_ALPHA
        for second, expected in ((threshold * 0.99, "Rows2:NN"), (threshold * 1.01, "Rows1:NN")):
            controller = _fake_controller(engine)
            controller.choose("fake", 0.06)
            controller.observe("fake", 0.06, 0.05)  # seeds the EWMA, within budget
            controller.observe("fake", 0.06, second)
            assert controller.choose("fake", 0.06).label == expected

    def test_tighten_skips_rungs_that_are_not_more_accurate(self, engine):
        """Tightening steps to the fastest later rung with a strictly lower
        calibrated error; a slower rung that is no more accurate is skipped."""
        controller = OnlineController(engine)
        controller.ladders["fake"] = [
            CalibrationEntry(config=ROWS2_NN, mean_error=0.02, max_error=0.02, speedup=3.0),
            CalibrationEntry(config=ROWS1_NN, mean_error=0.03, max_error=0.03, speedup=2.0),
            CalibrationEntry(config=ROWS1_LI, mean_error=0.01, max_error=0.01, speedup=1.5),
            CalibrationEntry(config=ACCURATE_CONFIG, mean_error=0.0, max_error=0.0, speedup=1.0),
        ]
        assert controller.choose("fake", 0.05).label == "Rows2:NN"
        controller.observe("fake", 0.05, 0.09)
        assert controller.choose("fake", 0.05).label == "Rows1:LI"
        assert controller.snapshot()["fake@0.05"]["tightened"] == 1

    def test_loosen_skips_inadmissible_faster_rungs(self, engine):
        """Loosening steps back to the nearest faster rung calibration deems
        admissible, past a faster rung that is not."""
        controller = OnlineController(engine)
        controller.ladders["fake"] = [
            CalibrationEntry(config=ROWS2_NN, mean_error=0.02, max_error=0.02, speedup=3.0),
            CalibrationEntry(config=ROWS1_NN, mean_error=0.1, max_error=0.1, speedup=2.0),
            CalibrationEntry(config=ROWS1_LI, mean_error=0.01, max_error=0.01, speedup=1.5),
            CalibrationEntry(config=ACCURATE_CONFIG, mean_error=0.0, max_error=0.0, speedup=1.0),
        ]
        controller.choose("fake", 0.05)
        controller.observe("fake", 0.05, 0.09)  # tighten past Rows1:NN to Rows1:LI
        assert controller.choose("fake", 0.05).label == "Rows1:LI"
        for _ in range(MIN_DWELL):
            controller.observe("fake", 0.05, 0.001)
        assert controller.choose("fake", 0.05).label == "Rows2:NN"

    def test_loop_constants_are_in_range(self):
        """The EWMA must weight the newest error, loosening needs headroom
        strictly inside the budget, and a stream dwells at least one
        observation before it loosens."""
        assert 0.0 < EWMA_ALPHA <= 1.0
        assert 0.0 < LOOSEN_HEADROOM < 1.0
        assert isinstance(MIN_DWELL, int) and MIN_DWELL >= 1

    def test_no_loosening_without_headroom(self, engine):
        controller = _fake_controller(engine)
        controller.choose("fake", 0.06)
        controller.observe("fake", 0.06, 0.09)  # tighten to Rows1:NN
        above_headroom = 1.5 * LOOSEN_HEADROOM * 0.06  # within budget, no headroom
        for _ in range(2 * MIN_DWELL):
            controller.observe("fake", 0.06, above_headroom)
        assert controller.choose("fake", 0.06).label == "Rows1:NN"

    def test_never_loosens_to_inadmissible_rung(self, engine):
        controller = _fake_controller(engine)
        # budget 0.03: Rows2:NN (0.04*1.25) is inadmissible, start at Rows1:NN
        assert controller.choose("fake", 0.03).label == "Rows1:NN"
        for _ in range(MIN_DWELL + 4):
            controller.observe("fake", 0.03, 0.0001)
        assert controller.choose("fake", 0.03).label == "Rows1:NN"

    def test_streams_are_independent(self, engine):
        controller = _fake_controller(engine)
        controller.choose("fake", 0.06)
        controller.choose("fake", 0.03)
        controller.observe("fake", 0.06, 0.09)
        assert controller.choose("fake", 0.06).label == "Rows1:NN"
        assert controller.choose("fake", 0.03).label == "Rows1:NN"  # untouched
        snapshot = controller.snapshot()
        assert snapshot["fake@0.06"]["tightened"] == 1
        assert snapshot["fake@0.03"]["tightened"] == 0
