"""Tuner facade: fronts, ladders, database persistence.

Pins the subsystem's acceptance criterion: a warm TuningDB makes a second
tune perform **zero** kernel evaluations (the application's
``approximate`` and ``reference`` are never called) and replays the
cold run's observations bit for bit.
"""

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.api.calibration import SAFETY_MARGIN, select
from repro.autotune import Tuner, TuningDB, TuningResult, default_space
from repro.autotune.space import config_key
from repro.core.errors import TuningError
from repro.data import generate_image

SIZE = 64


@pytest.fixture(scope="module")
def image():
    return generate_image("natural", size=SIZE, seed=7)


def _forbid_evaluation(monkeypatch, engine, app_name="gaussian"):
    """Make any kernel evaluation on ``engine``'s app an error."""
    app_type = type(engine.resolve_app(app_name))

    def boom(*args, **kwargs):  # pragma: no cover - the point is it never runs
        raise AssertionError("kernel evaluation must not happen on the warm path")

    monkeypatch.setattr(app_type, "approximate", boom)
    monkeypatch.setattr(app_type, "reference", boom)


def _observation_tuples(result: TuningResult):
    return [(o.key, o.fidelity, o.error, o.speedup, o.runtime_s) for o in result.observations]


class TestTune:
    def test_front_and_budget_ladder(self, image):
        tuner = Tuner(PerforationEngine(), db=False)
        result = tuner.tune("gaussian", image, strategy="grid")
        front = result.front()
        assert front
        speedups = [o.speedup for o in front]
        assert speedups == sorted(speedups)
        # Budget-indexed ladder: looser budgets never select slower configs.
        ladder = result.budget_ladder((0.01, 0.05, 0.10))
        chosen = [ladder[b] for b in (0.01, 0.05, 0.10)]
        by_key = {o.key: o for o in result.full_observations()}
        last = 0.0
        for config in chosen:
            if config is None:
                continue
            speedup = by_key[config_key(config)].speedup
            assert speedup >= last
            last = speedup

    def test_incremental_fronts_grow_monotonically_in_evals(self, image):
        tuner = Tuner(PerforationEngine(), db=False)
        result = tuner.tune("gaussian", image, strategy="grid")
        trajectory = list(result.incremental_fronts())
        assert trajectory[0][0] == 1
        assert trajectory[-1][0] == result.full_evaluations
        final_front = {(o.key) for o in trajectory[-1][1]}
        assert final_front == {o.key for o in result.front()}

    def test_best_for_budget_validates(self, image):
        tuner = Tuner(PerforationEngine(), db=False)
        result = tuner.tune("gaussian", image, strategy="grid", max_evals=5)
        with pytest.raises(TuningError):
            result.best_for_budget(0.0)

    def test_best_for_budget_applies_the_safety_margin(self, image):
        """A tuned configuration qualifies when its error times
        ``1 + SAFETY_MARGIN`` fits the budget, as in ``calibration.select``."""
        tuner = Tuner(PerforationEngine(), db=False)
        result = tuner.tune("gaussian", image, strategy="grid", max_evals=8)
        fastest = result.ladder()[0]
        assert fastest.mean_error > 0
        fits = fastest.mean_error * (1.0 + SAFETY_MARGIN)
        assert result.best_for_budget(fits) == fastest.config
        tighter = result.best_for_budget(np.nextafter(fits, 0.0))
        assert tighter != fastest.config
        assert result.budget_ladder([fits]) == {fits: fastest.config}

    def test_best_for_budget_is_select_over_the_ladder(self, image):
        tuner = Tuner(PerforationEngine(), db=False)
        result = tuner.tune("gaussian", image, strategy="grid")
        ladder = result.ladder()
        for budget in (0.01, 0.03, 0.05, 0.10, 1.0):
            rung = select(ladder, budget)
            assert result.best_for_budget(budget) == (rung.config if rung else None)

    def test_best_for_budget_is_none_when_nothing_fits(self, image):
        """A tuned ladder has no accurate rung to fall back to."""
        tuner = Tuner(PerforationEngine(), db=False)
        result = tuner.tune("gaussian", image, strategy="grid", max_evals=8)
        assert min(e.mean_error for e in result.ladder()) > 1e-9
        assert result.best_for_budget(1e-9) is None

    def test_tune_without_inputs_uses_default_inputs(self, image, monkeypatch):
        from repro.autotune import tuner as tuner_module

        asked = []

        def sample(app):
            asked.append(app.name)
            return image

        monkeypatch.setattr(tuner_module, "default_inputs", sample)
        tuner = Tuner(PerforationEngine(), db=False)
        implicit = tuner.tune("gaussian", strategy="grid", max_evals=5)
        explicit = tuner.tune("gaussian", image, strategy="grid", max_evals=5)
        assert asked == ["gaussian"]
        assert _observation_tuples(implicit) == _observation_tuples(explicit)

    def test_max_evals_budget_is_respected(self, image):
        tuner = Tuner(PerforationEngine(), db=False)
        result = tuner.tune("gaussian", image, max_evals=10)
        assert result.evaluations <= 10


class TestDatabase:
    def test_cold_then_warm_round_trip_is_bit_identical(self, tmp_path, image):
        db = TuningDB(tmp_path / "db")
        tuner = Tuner(PerforationEngine(), db=db)
        cold = tuner.tune("gaussian", image)
        warm = tuner.tune("gaussian", image)
        assert not cold.from_db and warm.from_db
        assert _observation_tuples(warm) == _observation_tuples(cold)
        assert [o.key for o in warm.front()] == [o.key for o in cold.front()]

    def test_warm_db_performs_zero_kernel_evaluations(
        self, tmp_path, image, monkeypatch
    ):
        db_path = tmp_path / "db"
        cold = Tuner(PerforationEngine(), db=TuningDB(db_path)).tune("gaussian", image)
        # A fresh engine models a fresh process: no memoization carries over.
        engine = PerforationEngine()
        _forbid_evaluation(monkeypatch, engine)
        warm = Tuner(engine, db=TuningDB(db_path)).tune("gaussian", image)
        assert warm.from_db
        assert _observation_tuples(warm) == _observation_tuples(cold)

    def test_key_ingredients_miss_instead_of_alias(self, tmp_path, image):
        db = TuningDB(tmp_path / "db")
        engine = PerforationEngine()
        tuner = Tuner(engine, db=db)
        tuner.tune("gaussian", image)
        # Different input content, seed, strategy or space -> fresh tune.
        other_image = generate_image("natural", size=SIZE, seed=8)
        assert not tuner.tune("gaussian", other_image).from_db
        assert not Tuner(engine, seed=1, db=db).tune("gaussian", image).from_db
        assert not tuner.tune("gaussian", image, strategy="grid").from_db
        smaller = default_space()
        smaller = type(smaller)(
            schemes=smaller.schemes[:2],
            reconstructions=smaller.reconstructions,
            work_groups=smaller.work_groups,
        )
        assert not Tuner(engine, space=smaller, db=db).tune("gaussian", image).from_db

    def test_tuning_is_independent_of_the_execution_backend(self, image):
        # Tuning runs the NumPy approximation, the error metric and the
        # timing model; no kernel launches, so the backend cannot matter.
        results = [
            Tuner(PerforationEngine(backend=backend), db=False).tune("gaussian", image)
            for backend in ("interpreter", "codegen")
        ]
        assert _observation_tuples(results[0]) == _observation_tuples(results[1])

    def test_a_record_replays_through_an_engine_on_another_backend(
        self, tmp_path, image, monkeypatch
    ):
        db_path = tmp_path / "db"
        codegen = PerforationEngine(backend="codegen")
        cold = Tuner(codegen, db=TuningDB(db_path)).tune("gaussian", image)
        interpreter = PerforationEngine(backend="interpreter")
        _forbid_evaluation(monkeypatch, interpreter)
        warm = Tuner(interpreter, db=TuningDB(db_path)).tune("gaussian", image)
        assert not cold.from_db and warm.from_db
        assert _observation_tuples(warm) == _observation_tuples(cold)
