"""Tests for the string-keyed registries behind the session API."""

import pytest

from repro.api.registry import Registry, RegistryError
from repro.apps import (
    APPLICATIONS,
    GaussianApp,
    available_applications,
    get_application,
    register_application,
)
from repro.clsim.device import (
    DEVICE_PROFILES,
    Device,
    available_devices,
    get_device,
    register_device,
)
from repro.clsim.errors import InvalidDeviceError
from repro.core.errors import SchemeError
from repro.core.schemes import (
    ROWS1,
    RowPerforation,
    SCHEMES,
    available_schemes,
    get_scheme,
    register_scheme,
)


class TestRegistryBasics:
    def test_register_and_get(self):
        registry = Registry("thing")
        registry.register("a", 1)
        assert registry.get("a") == 1
        assert "a" in registry
        assert registry.names() == ["a"]
        assert len(registry) == 1

    def test_unknown_name_raises_with_available_names(self):
        registry = Registry("thing")
        registry.register("a", 1)
        with pytest.raises(RegistryError, match="unknown thing 'b'.*'a'"):
            registry.get("b")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", 2)
        registry.register("a", 2, overwrite=True)
        assert registry.get("a") == 2

    def test_decorator_form(self):
        registry = Registry("factory")

        @registry.register("f")
        def factory():
            return 42

        assert registry.get("f") is factory

    def test_unregister(self):
        registry = Registry("thing")
        registry.register("a", 1)
        registry.unregister("a")
        assert "a" not in registry
        registry.unregister("a")  # idempotent

    def test_invalid_name_rejected(self):
        registry = Registry("thing")
        with pytest.raises(ValueError):
            registry.register("", 1)

    def test_custom_error_class(self):
        registry = Registry("widget", error=LookupError)
        with pytest.raises(LookupError):
            registry.get("nope")


class TestApplicationRegistry:
    def test_builtin_apps_registered(self):
        assert set(available_applications()) >= {
            "gaussian", "inversion", "median", "hotspot", "sobel3", "sobel5",
        }

    def test_get_application_instantiates(self):
        assert isinstance(get_application("gaussian"), GaussianApp)

    def test_unknown_application_raises_keyerror(self):
        with pytest.raises(KeyError):
            get_application("does-not-exist")

    def test_register_application_resolves_in_engine(self):
        from repro.api import PerforationEngine

        class TinyApp(GaussianApp):
            name = "tiny-gaussian"

        register_application("tiny-gaussian", TinyApp)
        try:
            assert isinstance(PerforationEngine().resolve_app("tiny-gaussian"), TinyApp)
        finally:
            APPLICATIONS.unregister("tiny-gaussian")


class TestDeviceRegistry:
    def test_builtin_profiles_registered(self):
        assert set(available_devices()) >= {
            "firepro-w5100", "generic-hbm", "low-bandwidth-igpu",
        }

    def test_unknown_device_raises_invalid_device_error(self):
        with pytest.raises(InvalidDeviceError):
            get_device("does-not-exist")

    def test_register_device_resolves_in_engine(self):
        from repro.api import PerforationEngine

        register_device(
            "test-tiny-gpu", lambda: Device(name="tiny", compute_units=2, clock_mhz=500.0)
        )
        try:
            engine = PerforationEngine(device="test-tiny-gpu")
            assert engine.device.compute_units == 2
        finally:
            DEVICE_PROFILES.unregister("test-tiny-gpu")


class TestSchemeRegistry:
    def test_builtin_schemes_registered(self):
        assert set(available_schemes()) >= {
            "accurate", "rows1", "rows2", "cols1", "stencil1",
        }

    def test_get_scheme(self):
        assert get_scheme("rows1") == ROWS1

    def test_unknown_scheme_raises_scheme_error(self):
        with pytest.raises(SchemeError):
            get_scheme("hexagonal")

    def test_register_scheme_by_own_name(self):
        rows8 = RowPerforation(step=8)
        register_scheme(rows8)
        try:
            assert get_scheme("rows4") is rows8  # step=8 -> name "rows4"
        finally:
            SCHEMES.unregister("rows4")
