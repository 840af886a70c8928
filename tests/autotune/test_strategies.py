"""Strategy semantics and the determinism guarantee.

Every strategy with a fixed seed must yield an identical evaluation
sequence and an identical final front across repeated runs and across
``workers`` settings (parallel == serial, matching the PR 1 engine
guarantee).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import PerforationEngine
from repro.autotune import (
    GridStrategy,
    SuccessiveHalvingStrategy,
    Tuner,
    TuningTask,
    available_strategies,
    default_space,
    resolve_strategy,
)
from repro.autotune.strategies import Observation, nondominated_layers
from repro.core.errors import TuningError
from repro.core.pareto import pareto_front
from repro.data import generate_image, hotspot_single

SIZE = 64
ALL_STRATEGIES = available_strategies()


@pytest.fixture(scope="module")
def image():
    return generate_image("natural", size=SIZE, seed=7)


def _trace(workers, strategy, image, seed=3, app="gaussian"):
    """Evaluation sequence + front of one tuning run, as comparable keys."""
    with PerforationEngine(workers=workers) as engine:
        result = Tuner(engine, db=False, seed=seed).tune(app, image, strategy=strategy)
    sequence = [
        (o.key, o.fidelity, o.error, o.speedup, o.runtime_s) for o in result.observations
    ]
    front = [(o.key, o.error, o.speedup) for o in result.front()]
    return sequence, front


class TestDeterminism:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_identical_across_runs(self, strategy, image):
        assert _trace(1, strategy, image) == _trace(1, strategy, image)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_parallel_equals_serial(self, strategy, image):
        serial = _trace(1, strategy, image)
        for workers in (2, 5):
            assert _trace(workers, strategy, image) == serial

    @pytest.mark.parametrize("strategy", ["random", "hill-climb"])
    def test_seed_changes_the_sequence(self, strategy, image):
        a, _ = _trace(1, strategy, image, seed=3)
        b, _ = _trace(1, strategy, image, seed=4)
        assert a != b  # seeded strategies actually consume the seed


class TestResolve:
    def test_resolve_by_name_and_instance(self):
        assert isinstance(resolve_strategy("grid"), GridStrategy)
        instance = SuccessiveHalvingStrategy(eta=3.0)
        assert resolve_strategy(instance) is instance
        assert isinstance(resolve_strategy(None), SuccessiveHalvingStrategy)

    def test_unknown_name_rejected(self):
        with pytest.raises(TuningError):
            resolve_strategy("simulated-annealing")


class TestTask:
    def test_candidates_are_validity_filtered(self, image):
        engine = PerforationEngine()
        task = TuningTask(engine, "gaussian", image, default_space())
        for config in task.candidates():
            wx, wy = config.work_group
            assert SIZE % wx == 0 and SIZE % wy == 0
            assert wx * wy <= engine.device.max_work_group_size

    def test_memoization_never_reevaluates(self, image):
        engine = PerforationEngine()
        task = TuningTask(engine, "gaussian", image, default_space())
        batch = task.candidates()[:5]
        first = task.evaluate_batch(batch, 1.0)
        evaluations = task.evaluations
        second = task.evaluate_batch(batch, 1.0)
        assert task.evaluations == evaluations  # all memo hits
        assert first == second

    def test_repeated_config_gets_its_first_observation(self, image):
        engine = PerforationEngine()
        task = TuningTask(engine, "gaussian", image, default_space())
        c0, c1, c2 = task.candidates()[:3]
        observed = task.evaluate_batch([c0, c1, c0, c2], 1.0)
        assert [o.config for o in observed] == [c0, c1, c0, c2]
        assert observed[2] is observed[0]
        assert task.evaluations == 3  # the repeat spends no budget

    def test_budget_truncates_deterministically(self, image):
        engine = PerforationEngine()
        task = TuningTask(engine, "gaussian", image, default_space(), max_evals=3)
        observed = task.evaluate_batch(task.candidates()[:10], 1.0)
        assert len(observed) == 3
        assert task.exhausted
        assert task.evaluate_batch(task.candidates()[10:], 1.0) == []

    def test_screening_uses_downscaled_input_but_full_size_speedup(self, image):
        engine = PerforationEngine()
        task = TuningTask(engine, "gaussian", image, default_space())
        fidelities = task.screening_fidelities()
        assert fidelities  # 64 is divisible by 4 and 2
        config = task.candidates()[0]
        low = task.evaluate_batch([config], fidelities[0])[0]
        full = task.evaluate_batch([config], 1.0)[0]
        assert low.fidelity < 1.0 and not low.is_full_fidelity
        # Speedup comes from the full-size timing model at every fidelity.
        assert low.speedup == full.speedup
        assert low.runtime_s == full.runtime_s

    def test_screening_unsupported_inputs_degrade_gracefully(self):
        engine = PerforationEngine()
        odd = generate_image("natural", size=66, seed=1)  # 66 % 4 != 0
        task = TuningTask(engine, "gaussian", odd, default_space())
        assert 0.25 not in task.screening_fidelities()


class TestSuccessiveHalving:
    def test_reproduces_grid_front_with_fewer_full_evaluations(self, image):
        engine = PerforationEngine(workers=2)
        tuner = Tuner(engine, db=False)
        grid = tuner.tune("gaussian", image, strategy="grid")
        halving = tuner.tune("gaussian", image, strategy="successive-halving")
        assert {o.key for o in halving.front()} == {o.key for o in grid.front()}
        assert halving.full_evaluations < grid.full_evaluations
        # The CI benchmark pins <= 40%; keep a looser structural floor here.
        assert halving.full_evaluations <= grid.full_evaluations / 2

    def test_screened_errors_measured_on_small_input(self, image):
        engine = PerforationEngine()
        tuner = Tuner(engine, db=False)
        result = tuner.tune("gaussian", image, strategy="successive-halving")
        fidelities = {o.fidelity for o in result.observations}
        assert fidelities >= {0.25, 0.5, 1.0}

    def test_first_rung_screens_every_candidate(self, image):
        engine = PerforationEngine()
        candidates = TuningTask(engine, "gaussian", image, default_space()).candidates()
        result = Tuner(engine, db=False).tune("gaussian", image, strategy="successive-halving")
        coarsest = [o.config for o in result.observations if o.fidelity == 0.25]
        assert coarsest == candidates

    def test_unscreenable_input_evaluates_every_candidate_at_full_size(self, image):
        """An input the tuner cannot downscale (array-like, but no array) has
        no screening rung: every candidate is evaluated once, at full
        fidelity, in candidate order."""

        class Opaque:
            def __array__(self, dtype=None, copy=None):
                return image

        engine = PerforationEngine()
        opaque = Opaque()
        task = TuningTask(engine, "gaussian", opaque, default_space())
        assert task.screening_fidelities() == ()
        result = Tuner(engine, db=False).tune("gaussian", opaque, strategy="successive-halving")
        assert all(o.is_full_fidelity for o in result.observations)
        assert [o.config for o in result.observations] == task.candidates()

    def test_hotspot_grid_screens_and_reaches_the_grid_front(self):
        """Temperature and power shrink together, so a Hotspot grid screens
        like an image and reaches the exhaustive front with fewer full
        evaluations."""
        engine = PerforationEngine()
        grid = hotspot_single(size=64, seed=1)
        task = TuningTask(engine, "hotspot", grid, default_space())
        assert task.screening_fidelities() == (0.25, 0.5)
        screened = task.scaled_inputs(0.25)
        assert screened.size == 16 and screened.power.shape == (16, 16)
        assert (screened.temperature == grid.temperature[::4, ::4]).all()
        tuner = Tuner(engine, db=False)
        exhaustive = tuner.tune("hotspot", grid, strategy="grid")
        halving = tuner.tune("hotspot", grid, strategy="successive-halving")
        assert {o.fidelity for o in halving.observations} == {0.25, 0.5, 1.0}
        assert {o.key for o in halving.front()} == {o.key for o in exhaustive.front()}
        assert halving.full_evaluations < exhaustive.full_evaluations


def _layers_by_repeated_fronts(observations):
    """The former layering, kept as the oracle: one ``pareto_front`` per layer."""
    remaining = list(observations)
    layers = []
    while remaining:
        front = pareto_front(remaining)
        members = {id(o) for o in front}
        keys = {(o.speedup, o.error) for o in front}
        layer = [o for o in remaining if id(o) in members or (o.speedup, o.error) in keys]
        layers.append(layer)
        remaining = [o for o in remaining if o not in layer]
    return layers


#: Few distinct values, so speedups, errors and whole pairs tie often.
_OBJECTIVES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, math.inf])


class TestNondominatedLayers:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(_OBJECTIVES, _OBJECTIVES), max_size=40))
    def test_sort_based_layers_match_repeated_fronts(self, pairs):
        config = default_space().configurations(halo=1)[0]
        observations = [
            Observation(config=config, fidelity=1.0, error=e, speedup=s, runtime_s=float(i))
            for i, (s, e) in enumerate(pairs)
        ]
        layers = nondominated_layers(observations)
        expected = _layers_by_repeated_fronts(observations)
        assert [[id(o) for o in layer] for layer in layers] == [
            [id(o) for o in layer] for layer in expected
        ]

    def test_layers_partition_and_order(self, image):
        engine = PerforationEngine()
        task = TuningTask(engine, "gaussian", image, default_space())
        observations = task.evaluate_batch(task.candidates()[:12], 1.0)
        layers = nondominated_layers(observations)
        flattened = [o for layer in layers for o in layer]
        assert sorted(o.key for o in flattened) == sorted(o.key for o in observations)
        front_keys = {(o.speedup, o.error) for o in pareto_front(observations)}
        assert {(o.speedup, o.error) for o in layers[0]} == front_keys
