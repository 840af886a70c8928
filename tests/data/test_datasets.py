"""Tests for the datasets."""

import numpy as np

from repro.data import (
    ImageClass,
    available_datasets,
    figure7_examples,
    hotspot_single,
    hotspot_suite,
    image_arrays,
    image_suite,
    single_image,
)


class TestRegistry:
    def test_available_datasets(self):
        names = available_datasets()
        assert "sipi-substitute" in names
        assert "hotspot-rodinia" in names
        assert "class-examples" in names



class TestImageDatasets:
    def test_image_suite_cached_and_sized(self):
        suite_a = image_suite(count=8, size=32, seed=1)
        suite_b = image_suite(count=8, size=32, seed=1)
        assert suite_a is suite_b  # lru_cache
        assert len(suite_a) == 8
        spec, image = suite_a[0]
        assert image.shape == (32, 32)
        assert spec.size == 32

    def test_image_arrays_returns_plain_arrays(self):
        arrays = image_arrays(count=4, size=32, seed=2)
        assert len(arrays) == 4
        assert all(isinstance(a, np.ndarray) for a in arrays)

    def test_figure7_examples(self):
        examples = figure7_examples(size=32)
        assert set(examples) == set(ImageClass)

    def test_single_image(self):
        image = single_image(ImageClass.PATTERN, size=32, seed=5)
        assert image.shape == (32, 32)


class TestHotspotDatasets:
    def test_hotspot_suite_capped(self):
        suite = hotspot_suite(max_size=128)
        assert all(i.size <= 128 for i in suite)
        assert len(suite) >= 3

    def test_hotspot_single(self):
        instance = hotspot_single(size=96)
        assert instance.size == 96
