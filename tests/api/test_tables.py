"""Name resolution through the plain tables of built-in instances (the
names each table holds are pinned in ``tests/test_settings_census.py``)."""

import pytest

from repro.api import PerforationEngine
from repro.apps import get_application
from repro.clsim.device import DEVICE_PROFILES, get_device
from repro.clsim.errors import InvalidDeviceError


class TestApplicationTable:
    def test_engine_resolves_the_table_instance(self):
        assert PerforationEngine().resolve_app("sobel3") is get_application("sobel3")

    def test_unknown_application_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown application 'does-not-exist'.*'gaussian'"):
            get_application("does-not-exist")


class TestDeviceTable:
    def test_engine_uses_the_table_profile(self):
        assert PerforationEngine(device="generic-hbm").device is DEVICE_PROFILES["generic-hbm"]

    def test_unknown_device_raises_invalid_device_error(self):
        with pytest.raises(
            InvalidDeviceError, match="unknown device profile 'nope'.*'generic-hbm'"
        ):
            get_device("nope")
