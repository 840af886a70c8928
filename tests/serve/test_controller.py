"""Online controller: ladder construction, tighten/loosen policy."""

import pytest

from repro.api import CalibrationEntry, PerforationEngine
from repro.core.config import ACCURATE_CONFIG, ROWS1_NN, ROWS2_NN
from repro.core.errors import TuningError
from repro.data import generate_image
from repro.serve import ControllerPolicy, OnlineController


@pytest.fixture(scope="module")
def engine():
    return PerforationEngine()


def _fake_controller(engine, policy=None):
    """Controller with an injected ladder (no calibration sweep)."""
    controller = OnlineController(engine, policy=policy)
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

    def test_seeded_ladders_are_not_counted_as_calibrated(self, engine):
        controller = _fake_controller(engine)
        assert controller.ladder("fake")[-1].config == ACCURATE_CONFIG
        assert controller.calibrated == 0

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
        policy = ControllerPolicy(ewma_alpha=0.25)
        controller = _fake_controller(engine, policy)
        controller.choose("fake", 0.06)
        controller.observe("fake", 0.06, 0.07)  # one bad request: ewma 0.07 > budget?
        # first observation seeds the EWMA directly, so this tightens…
        assert controller.choose("fake", 0.06).label == "Rows1:NN"
        # …but after a switch the window is fresh: one small error keeps it
        controller.observe("fake", 0.06, 0.01)
        controller.observe("fake", 0.06, 0.08)  # ewma = 0.25*0.08 + 0.75*0.01 < 0.06
        assert controller.choose("fake", 0.06).label == "Rows1:NN"

    def test_loosens_with_headroom_after_dwell(self, engine):
        policy = ControllerPolicy(min_dwell=3, loosen_headroom=0.5)
        controller = _fake_controller(engine, policy)
        assert controller.choose("fake", 0.06).label == "Rows2:NN"
        controller.observe("fake", 0.06, 0.09)  # tighten to Rows1:NN
        assert controller.choose("fake", 0.06).label == "Rows1:NN"
        for _ in range(2):
            controller.observe("fake", 0.06, 0.005)
        # dwell not reached yet
        assert controller.choose("fake", 0.06).label == "Rows1:NN"
        controller.observe("fake", 0.06, 0.005)
        # 3 observations with ewma < 0.03 → back to the faster rung
        assert controller.choose("fake", 0.06).label == "Rows2:NN"

    def test_never_loosens_to_inadmissible_rung(self, engine):
        policy = ControllerPolicy(min_dwell=1, loosen_headroom=0.9)
        controller = _fake_controller(engine, policy)
        # budget 0.03: Rows2:NN (0.04*1.25) is inadmissible, start at Rows1:NN
        assert controller.choose("fake", 0.03).label == "Rows1:NN"
        for _ in range(5):
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

    def test_policy_validation(self):
        with pytest.raises(TuningError):
            ControllerPolicy(ewma_alpha=0.0)
        with pytest.raises(TuningError):
            ControllerPolicy(loosen_headroom=1.0)
        with pytest.raises(TuningError):
            ControllerPolicy(min_dwell=0)


class TestTunerSeededLadders:
    """Acceptance: controller ladders seeded from the TuningDB are
    bit-identical to ladders from in-process calibration."""

    @staticmethod
    def _image():
        return generate_image("natural", size=32, seed=3)

    def test_db_seeded_ladder_bit_identical_to_calibration(self, tmp_path):
        from repro.autotune import Tuner, TuningDB

        image = self._image()
        plain_engine = PerforationEngine()
        plain = OnlineController(
            plain_engine, calibration_inputs={"gaussian": [image]}
        )
        reference = plain.ladder("gaussian")

        # Cold database, separate engine: same floats, computed via the
        # tuner path and persisted.
        db_path = tmp_path / "db"
        cold_engine = PerforationEngine()
        cold = OnlineController(
            cold_engine,
            calibration_inputs={"gaussian": [image]},
            tuner=Tuner(cold_engine, db=TuningDB(db_path)),
        )
        assert cold.ladder("gaussian") == reference

        # Warm database, third engine: the ladder is restored without any
        # calibration sweep (Session.calibrate would need an error budget
        # and an engine sweep; the DB answers first).
        warm_engine = PerforationEngine()
        warm = OnlineController(
            warm_engine,
            calibration_inputs={"gaussian": [image]},
            tuner=Tuner(warm_engine, db=TuningDB(db_path)),
        )
        assert warm.ladder("gaussian") == reference

    def test_warm_ladder_needs_no_kernel_evaluations(self, tmp_path, monkeypatch):
        from repro.autotune import Tuner, TuningDB

        image = self._image()
        db_path = tmp_path / "db"
        seed_engine = PerforationEngine()
        OnlineController(
            seed_engine,
            calibration_inputs={"gaussian": [image]},
            tuner=Tuner(seed_engine, db=TuningDB(db_path)),
        ).ladder("gaussian")

        engine = PerforationEngine()
        app_type = type(engine.resolve_app("gaussian"))

        def boom(*args, **kwargs):
            raise AssertionError("warm ladder must not evaluate kernels")

        monkeypatch.setattr(app_type, "approximate", boom)
        monkeypatch.setattr(app_type, "reference", boom)
        controller = OnlineController(
            engine,
            calibration_inputs={"gaussian": [image]},
            tuner=Tuner(engine, db=TuningDB(db_path)),
        )
        ladder = controller.ladder("gaussian")
        assert ladder[-1].config.label == "Accurate"
        assert len(ladder) > 1
