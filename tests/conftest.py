"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clsim import Executor, firepro_w5100
from repro.data import generate_image, hotspot_single
from repro.data.images import ImageClass


@pytest.fixture(scope="session")
def device():
    """The default simulated device."""
    return firepro_w5100()


@pytest.fixture()
def executor(device):
    return Executor(device)


@pytest.fixture(scope="session")
def natural_image_64():
    """A small natural image shared by functional tests."""
    return generate_image(ImageClass.NATURAL, size=64, seed=11)


@pytest.fixture(scope="session")
def natural_image_128():
    return generate_image(ImageClass.NATURAL, size=128, seed=12)


@pytest.fixture(scope="session")
def pattern_image_64():
    return generate_image(ImageClass.PATTERN, size=64, seed=13)


@pytest.fixture(scope="session")
def flat_image_64():
    return generate_image(ImageClass.FLAT, size=64, seed=14)


@pytest.fixture(scope="session")
def hotspot_input_64():
    return hotspot_single(size=64, seed=21)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2018)
