"""Approximation keys and the engine's one-approximation-per-key batch.

``Application.approximation_key`` names what ``approximate`` depends on: a
row scheme sees the work group only through the tile height, a column scheme
only through the tile width, and the stencil scheme not the reconstruction.
Equal keys must give byte-identical outputs, so ``PerforationEngine.errors``
can approximate each distinct key once per batch without changing a single
error, and the tuner's evaluation path is built on it.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.apps import available_applications, get_application
from repro.apps.gaussian import GaussianApp
from repro.autotune import TuningTask, default_space
from repro.core.config import ApproximationConfig, default_configurations
from repro.autotune.space import scheme_from_dict, scheme_to_dict
from repro.core.errors import ConfigurationError, SchemeError
from repro.core.quality import compute_error
from repro.core.reconstruction import NEAREST_NEIGHBOR, make_sampler, sampler_key
from repro.core.schemes import COLS1, ROWS1, STENCIL1, PerforationScheme


class CountingGaussian(GaussianApp):
    """Gaussian app that counts its ``approximate`` calls."""

    def __init__(self):
        super().__init__()
        self.approximate_calls = 0

    def approximate(self, inputs, config):
        self.approximate_calls += 1
        return super().approximate(inputs, config)


def _inputs(app, natural_image_64, hotspot_input_64):
    return hotspot_input_64 if app.name == "hotspot" else natural_image_64


def _every_config(app):
    """Every candidate, with no size filter (all ten work groups), plus the defaults."""
    return default_space().configurations(halo=app.halo) + default_configurations(app.halo)


class TestSamplerKey:
    def test_row_and_column_keys_read_one_tile_extent(self):
        rows = sampler_key(ROWS1, NEAREST_NEIGHBOR, 8, 32)
        assert rows == sampler_key(ROWS1, NEAREST_NEIGHBOR, 64, 32)
        assert rows != sampler_key(ROWS1, NEAREST_NEIGHBOR, 8, 16)
        columns = sampler_key(COLS1, NEAREST_NEIGHBOR, 8, 32)
        assert columns == sampler_key(COLS1, NEAREST_NEIGHBOR, 8, 64)
        assert columns != sampler_key(COLS1, NEAREST_NEIGHBOR, 16, 32)

    def test_stencil_key_ignores_the_technique(self):
        assert sampler_key(STENCIL1, "nearest-neighbor", 16, 8) == sampler_key(
            STENCIL1, "linear-interpolation", 16, 8
        )


@dataclass(frozen=True)
class _UnknownScheme(PerforationScheme):
    """A scheme of a kind no dispatch point knows (such as "random")."""

    name: str = "unknown"

    @property
    def kind(self) -> str:
        return "random"


#: Every place that dispatches on a scheme's kind, given an unknown one.
_DISPATCH = {
    "sampler_key": lambda: sampler_key(_UnknownScheme()),
    "make_sampler": lambda: make_sampler(np.zeros((8, 8)), _UnknownScheme()),
    "profile": lambda: get_application("gaussian").profile(
        ApproximationConfig(scheme=_UnknownScheme()), (64, 64)
    ),
    "scheme_to_dict": lambda: scheme_to_dict(_UnknownScheme()),
    "scheme_from_dict": lambda: scheme_from_dict({"kind": "random", "fraction": 0.5, "seed": 0}),
}


@pytest.mark.parametrize("where", sorted(_DISPATCH))
def test_an_unknown_scheme_kind_is_refused(where):
    """No branch takes a scheme kind it does not know for one it does."""
    with pytest.raises((ConfigurationError, SchemeError), match="scheme kind 'random'"):
        _DISPATCH[where]()


class TestKeyCompleteness:
    @pytest.mark.parametrize("name", available_applications())
    def test_equal_keys_give_byte_identical_outputs(self, name, natural_image_64, hotspot_input_64):
        app = get_application(name)
        inputs = _inputs(app, natural_image_64, hotspot_input_64)
        groups: dict[object, list[ApproximationConfig]] = {}
        for config in _every_config(app):
            groups.setdefault(app.approximation_key(config), []).append(config)
        assert len(groups) < len(_every_config(app))  # some keys are shared
        for key, configs in groups.items():
            first = app.approximate(inputs, configs[0]).tobytes()
            for config in configs[1:]:
                assert app.approximate(inputs, config).tobytes() == first, (key, config)


class TestEngineErrors:
    def test_one_approximation_per_key(self, natural_image_64):
        app = CountingGaussian()
        candidates = default_space().configurations(halo=app.halo)
        assert len(candidates) == 110
        errors = PerforationEngine().errors(app, natural_image_64, candidates)
        assert len(errors) == 110
        assert app.approximate_calls == 80

    @pytest.mark.parametrize("workers", [1, 2])
    def test_errors_equal_per_config_evaluate(self, workers, natural_image_128):
        # Every one of the ten work groups tiles a 128x128 launch.
        candidates = default_space().configurations(halo=1)
        expected = [
            PerforationEngine().evaluate("gaussian", natural_image_128, config).error
            for config in candidates
        ]
        with PerforationEngine(workers=workers) as engine:
            assert engine.errors("gaussian", natural_image_128, candidates) == expected
            many = engine.evaluate_many("gaussian", natural_image_128, candidates)
        assert [result.error for result in many] == expected
        assert [result.config for result in many] == candidates

    def test_validation_matches_evaluate(self, natural_image_64):
        engine = PerforationEngine()
        stencil = ApproximationConfig(scheme=STENCIL1)
        with pytest.raises(ConfigurationError):
            engine.evaluate("inversion", natural_image_64, stencil)
        with pytest.raises(ConfigurationError):
            engine.errors(
                "inversion", natural_image_64, [ApproximationConfig(scheme=ROWS1), stencil]
            )


class TestTunerPath:
    def test_full_fidelity_equals_per_config_evaluate(self, natural_image_64):
        engine = PerforationEngine()
        task = TuningTask(engine, "gaussian", natural_image_64, default_space())
        observations = task.evaluate_batch(task.candidates(), 1.0)
        assert len(observations) == len(task.candidates())
        for observation in observations:
            result = PerforationEngine().evaluate("gaussian", natural_image_64, observation.config)
            assert observation.config == result.config
            assert observation.error == result.error
            assert observation.speedup == result.speedup
            assert observation.runtime_s == result.approx_time_s

    def test_screening_equals_the_explicit_formula(self, natural_image_64):
        engine = PerforationEngine()
        app = get_application("gaussian")
        task = TuningTask(engine, app, natural_image_64, default_space())
        fidelity = task.screening_fidelities()[0]
        small = np.ascontiguousarray(natural_image_64[::4, ::4])
        assert fidelity == 0.25 and task.scaled_inputs(fidelity).tobytes() == small.tobytes()
        reference = app.reference(small)
        full_size = app.global_size(natural_image_64)
        baseline_s = engine.baseline_timing(app, full_size).total_time_s
        for observation in task.evaluate_batch(task.candidates(), fidelity):
            config = observation.config
            approx_s = engine.timing(app, config, full_size).total_time_s
            error = compute_error(reference, app.approximate(small, config), app.error_metric)
            assert observation.fidelity == fidelity
            assert observation.error == error
            assert observation.speedup == baseline_s / approx_s
            assert observation.runtime_s == approx_s
