"""Tests for the analytical timing model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clsim import (
    AccessPattern,
    GlobalTraffic,
    KernelProfile,
    LocalMemoryExceededError,
    NDRange,
    TimingModel,
    firepro_w5100,
    per_item_traffic,
    tile_traffic,
)


@pytest.fixture()
def model():
    return TimingModel(firepro_w5100())


def simple_profile(reads_per_item=1.0, name="k", **kwargs):
    traffic = (
        per_item_traffic("input", 16, 16, elements_per_item=reads_per_item),
        tile_traffic("output", 16, 16, is_store=True),
    )
    return KernelProfile(name=name, traffic=traffic, flops_per_item=4.0, **kwargs)


class TestGlobalTraffic:
    def test_row_contiguous_transactions(self):
        traffic = GlobalTraffic("buf", segments_per_group=18, segment_elements=18)
        # 18 floats = 72 bytes -> 2 transactions of 64 bytes per segment
        assert traffic.transactions_per_group(64) == 36
        assert traffic.bytes_per_group() == 18 * 18 * 4
        assert traffic.coalescing_efficiency(64) == pytest.approx(72 / 128)

    def test_strided_costs_one_transaction_per_element(self):
        traffic = GlobalTraffic(
            "buf", segments_per_group=10, segment_elements=4, pattern=AccessPattern.STRIDED
        )
        assert traffic.transactions_per_group(64) == 40

    def test_broadcast_costs_one_transaction(self):
        traffic = GlobalTraffic(
            "buf", segments_per_group=10, segment_elements=4, pattern=AccessPattern.BROADCAST
        )
        assert traffic.transactions_per_group(64) == 1

    def test_empty_traffic(self):
        traffic = GlobalTraffic("buf", segments_per_group=0, segment_elements=0)
        assert traffic.transactions_per_group(64) == 0
        assert traffic.coalescing_efficiency(64) == 1.0

    def test_tile_traffic_row_fraction(self):
        full = tile_traffic("in", 16, 16, halo=1)
        half = tile_traffic("in", 16, 16, halo=1, rows_loaded_fraction=0.5)
        assert half.elements_per_group() == pytest.approx(full.elements_per_group() / 2)

    def test_tile_traffic_without_halo(self):
        core = tile_traffic("in", 16, 16, halo=2, include_halo=False)
        assert core.segment_elements == 16
        assert core.segments_per_group == 16

    def test_per_item_traffic_accounts_for_cache(self):
        traffic = per_item_traffic("in", 16, 16, elements_per_item=9, halo=1)
        unique = 18 * 18
        assert traffic.elements_per_group() == unique
        assert traffic.cached_accesses_per_group == pytest.approx(9 * 256 - unique)


class TestKernelProfile:
    def test_divergence_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            KernelProfile(name="bad", divergence_factor=0.5)

    def test_total_ops_include_private_accesses(self):
        profile = KernelProfile(
            name="k", flops_per_item=10.0, int_ops_per_item=2.0, private_accesses_per_item=4.0
        )
        assert profile.total_ops_per_item() == pytest.approx(10.0 + 2.0 + 2.0)


class TestTimingModel:
    def test_estimate_produces_positive_breakdown(self, model):
        nd = NDRange((1024, 1024), (16, 16))
        breakdown = model.estimate(simple_profile(), nd)
        assert breakdown.total_time_s > 0
        assert breakdown.dram_time_s > 0
        assert breakdown.total_time_s >= breakdown.launch_overhead_s
        assert 0 < breakdown.coalescing_efficiency <= 1.0
        assert 0 < breakdown.occupancy <= 1.0
        assert breakdown.bound in ("compute", "dram", "latency", "local")
        assert "Kernel" in breakdown.describe()

    def test_more_traffic_is_slower(self, model):
        nd = NDRange((1024, 1024), (16, 16))
        light = model.estimate(simple_profile(reads_per_item=1), nd)
        heavy = model.estimate(simple_profile(reads_per_item=25), nd)
        assert heavy.total_time_s > light.total_time_s

    def test_compare_helper(self, model):
        nd = NDRange((1024, 1024), (16, 16))
        ratio = model.compare(
            (simple_profile(reads_per_item=9), nd), (simple_profile(reads_per_item=1), nd)
        )
        assert ratio > 1.0

    def test_perforation_reduces_modelled_time(self, model):
        """Halving the fetched rows must make the kernel faster (the core claim)."""
        nd = NDRange((1024, 1024), (16, 16))
        full = KernelProfile(
            name="full",
            traffic=(tile_traffic("in", 16, 16, halo=1), tile_traffic("out", 16, 16, is_store=True)),
            flops_per_item=18.0,
            local_reads_per_item=9.0,
            local_writes_per_item=1.3,
            barriers_per_group=1,
            local_mem_bytes_per_group=18 * 18 * 4,
        )
        perforated = KernelProfile(
            name="perforated",
            traffic=(
                tile_traffic("in", 16, 16, halo=1, rows_loaded_fraction=0.5),
                tile_traffic("out", 16, 16, is_store=True),
            ),
            flops_per_item=18.0,
            local_reads_per_item=10.0,
            local_writes_per_item=1.3,
            barriers_per_group=3,
            local_mem_bytes_per_group=18 * 18 * 4,
        )
        assert model.estimate(perforated, nd).total_time_s < model.estimate(full, nd).total_time_s

    def test_local_staging_beats_repeated_global_reads(self, model):
        """Staging a 5x5 stencil in local memory must be faster than naive reads."""
        nd = NDRange((1024, 1024), (16, 16))
        naive = simple_profile(reads_per_item=25)
        staged = KernelProfile(
            name="staged",
            traffic=(tile_traffic("in", 16, 16, halo=2), tile_traffic("out", 16, 16, is_store=True)),
            flops_per_item=4.0,
            local_reads_per_item=25.0,
            local_writes_per_item=1.6,
            barriers_per_group=1,
            local_mem_bytes_per_group=20 * 20 * 4,
        )
        assert model.estimate(staged, nd).total_time_s < model.estimate(naive, nd).total_time_s

    def test_poor_coalescing_is_penalised(self, model):
        """Narrow work groups (2x128) fetch badly aligned segments (Figure 9)."""
        wide = model.estimate(
            KernelProfile(name="wide", traffic=(tile_traffic("in", 64, 4, halo=1),)),
            NDRange((1024, 1024), (64, 4)),
        )
        narrow = model.estimate(
            KernelProfile(name="narrow", traffic=(tile_traffic("in", 2, 128, halo=1),)),
            NDRange((1024, 1024), (2, 128)),
        )
        assert narrow.total_time_s > wide.total_time_s
        assert narrow.coalescing_efficiency < wide.coalescing_efficiency

    def test_local_memory_limits_occupancy(self, model):
        nd = NDRange((1024, 1024), (16, 16))
        small = KernelProfile(name="small", local_mem_bytes_per_group=1024)
        large = KernelProfile(name="large", local_mem_bytes_per_group=32 * 1024)
        assert model.occupancy(large, nd) < model.occupancy(small, nd)

    def test_local_memory_over_capacity_raises(self, model):
        nd = NDRange((64, 64), (16, 16))
        profile = KernelProfile(name="too-big", local_mem_bytes_per_group=128 * 1024)
        with pytest.raises(LocalMemoryExceededError):
            model.estimate(profile, nd)

    def test_sfu_ops_add_compute_time(self, model):
        nd = NDRange((1024, 1024), (16, 16))
        base = KernelProfile(name="base", flops_per_item=500.0)
        sfu = KernelProfile(name="sfu", flops_per_item=500.0, sfu_ops_per_item=100.0)
        assert model.estimate(sfu, nd).compute_time_s > model.estimate(base, nd).compute_time_s

    @given(fraction=st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_runtime_monotone_in_loaded_fraction(self, fraction):
        """Loading less data never makes the modelled kernel slower."""
        model = TimingModel(firepro_w5100())
        nd = NDRange((512, 512), (16, 16))
        def profile(frac):
            return KernelProfile(
                name="p",
                traffic=(
                    tile_traffic("in", 16, 16, halo=1, rows_loaded_fraction=frac),
                    tile_traffic("out", 16, 16, is_store=True),
                ),
                local_mem_bytes_per_group=18 * 18 * 4,
            )
        partial = model.estimate(profile(fraction), nd).total_time_s
        full = model.estimate(profile(1.0), nd).total_time_s
        assert partial <= full + 1e-12
