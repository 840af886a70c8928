"""The compiled kernels against the NumPy fast path, across the autotune space.

The autotuner screens and ranks candidates on the sampler-based NumPy fast
path, so its choices hold for the compiled perforated kernels only if both
compute the same values.  Every row-scheme and stencil candidate of
``default_space()`` is checked bit for bit on codegen, for every app and two
work-group shapes.  Column schemes have no compiled path; the sampler alone
defines them.
"""

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.apps import get_application
from repro.autotune.space import config_key, default_space
from repro.core.errors import ConfigurationError
from repro.core.schemes import KIND_COLUMNS, KIND_ROWS, KIND_STENCIL
from repro.data import generate_image, hotspot_single

SIZE = 32
WORK_GROUPS = ((8, 8), (32, 8))
APP_NAMES = ("gaussian", "inversion", "sobel3", "sobel5", "median", "hotspot")


def _inputs_for(app_name):
    if app_name == "hotspot":
        return hotspot_single(size=SIZE, seed=31)
    return generate_image("natural", size=SIZE, seed=31)


def _candidates(kinds):
    return [
        pytest.param(name, config, id=f"{name}-{config_key(config)}")
        for name in APP_NAMES
        for config in default_space().configurations(
            halo=get_application(name).halo, global_size=(SIZE, SIZE)
        )
        if config.scheme.kind in kinds and config.work_group in WORK_GROUPS
    ]


COMPILED = _candidates((KIND_ROWS, KIND_STENCIL))


@pytest.fixture(scope="module")
def engine():
    return PerforationEngine(backend="codegen")


def test_every_compiled_candidate_is_covered():
    # 6 apps x 3 row rates x {NN, LI}, plus the stencil for the 5 apps with
    # a halo, at each of the 2 work groups.
    assert len(COMPILED) == 2 * (6 * 3 * 2 + 5)


@pytest.mark.parametrize("app_name, config", COMPILED)
def test_compiled_kernel_matches_fast_path(engine, app_name, config):
    app = get_application(app_name)
    inputs = _inputs_for(app_name)
    compiled = engine.run_compiled(app, inputs, config)
    np.testing.assert_array_equal(compiled, app.approximate(inputs, config))


@pytest.mark.parametrize("app_name, config", _candidates((KIND_COLUMNS,))[:2])
def test_column_schemes_have_no_compiled_path(engine, app_name, config):
    with pytest.raises(ConfigurationError):
        engine.run_compiled(get_application(app_name), _inputs_for(app_name), config)
