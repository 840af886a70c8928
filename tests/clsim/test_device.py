"""Tests for the device models."""

import pytest

from repro.clsim import (
    Device,
    InvalidDeviceError,
    available_devices,
    firepro_w5100,
    generic_hbm_gpu,
    get_device,
    low_bandwidth_igpu,
)


class TestDeviceConstruction:
    def test_firepro_profile_matches_paper_hardware(self):
        device = firepro_w5100()
        assert device.compute_units == 12
        assert device.wavefront_size == 64
        assert device.local_mem_per_cu == 64 * 1024
        assert device.global_mem_bytes == int(3.5 * 1024 ** 3)

    def test_derived_quantities(self):
        device = firepro_w5100()
        assert device.clock_hz == pytest.approx(930e6)
        assert device.cycle_time_s == pytest.approx(1.0 / 930e6)
        assert device.global_bandwidth_bytes_per_s == pytest.approx(96e9)
        assert device.peak_flops > 1e12

    def test_describe_mentions_name_and_cus(self):
        text = firepro_w5100().describe()
        assert "FirePro" in text
        assert "12" in text

    def test_invalid_compute_units_rejected(self):
        with pytest.raises(InvalidDeviceError):
            Device(name="bad", compute_units=0, clock_mhz=1000.0)

    def test_invalid_clock_rejected(self):
        with pytest.raises(InvalidDeviceError):
            Device(name="bad", compute_units=4, clock_mhz=0.0)

    def test_wavefront_must_be_power_of_two(self):
        with pytest.raises(InvalidDeviceError):
            Device(name="bad", compute_units=4, clock_mhz=1000.0, wavefront_size=48)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(InvalidDeviceError):
            Device(
                name="bad", compute_units=4, clock_mhz=1000.0, global_bandwidth_gbps=-1.0
            )


class TestDeviceProfiles:
    def test_available_devices_lists_builtin_profiles(self):
        names = available_devices()
        assert "firepro-w5100" in names
        assert "generic-hbm" in names
        assert "low-bandwidth-igpu" in names

    def test_get_device_returns_the_builtin_profile(self):
        assert get_device("firepro-w5100") is get_device("firepro-w5100")
        assert get_device("firepro-w5100") == firepro_w5100()

    def test_get_device_unknown_name(self):
        with pytest.raises(InvalidDeviceError):
            get_device("does-not-exist")

    def test_profiles_have_distinct_bandwidths(self):
        fast = generic_hbm_gpu()
        slow = low_bandwidth_igpu()
        assert fast.global_bandwidth_gbps > slow.global_bandwidth_gbps

    def test_devices_are_frozen(self):
        device = firepro_w5100()
        with pytest.raises(Exception):
            device.compute_units = 99  # type: ignore[misc]
