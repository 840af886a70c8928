"""Dataset registry used by the experiments.

Centralises the datasets the evaluation needs so that every experiment and
benchmark pulls identical, deterministically seeded inputs:

* the 100-image mixed suite (stand-in for the USC-SIPI selection);
* one example image per content class (Figure 7);
* the Rodinia-style Hotspot input suite (8 sizes).

Datasets are cached in-process because several figures reuse the same
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hotspot import HotspotInput, RODINIA_SIZES, rodinia_input_suite
from .images import (
    DEFAULT_SIZE,
    ImageClass,
    ImageSpec,
    class_examples,
    generate_dataset,
    generate_image,
)


@dataclass(frozen=True)
class DatasetDescription:
    """Metadata of a named dataset."""

    name: str
    kind: str
    count: int
    notes: str


_DESCRIPTIONS = {
    "sipi-substitute": DatasetDescription(
        name="sipi-substitute",
        kind="grayscale images",
        count=100,
        notes="synthetic stand-in for the USC-SIPI misc+pattern selection",
    ),
    "class-examples": DatasetDescription(
        name="class-examples",
        kind="grayscale images",
        count=3,
        notes="one flat, one natural, one pattern image (Figure 7)",
    ),
    "hotspot-rodinia": DatasetDescription(
        name="hotspot-rodinia",
        kind="power/temperature grids",
        count=len(RODINIA_SIZES),
        notes="synthetic substitutes for the 8 Rodinia Hotspot input sizes",
    ),
}


def available_datasets() -> list[str]:
    """Names of the registered datasets."""
    return sorted(_DESCRIPTIONS)



# ---------------------------------------------------------------------------
# Image datasets
# ---------------------------------------------------------------------------
@lru_cache(maxsize=8)
def image_suite(
    count: int = 100, size: int = DEFAULT_SIZE, seed: int = 2018
) -> tuple[tuple[ImageSpec, np.ndarray], ...]:
    """The mixed image suite (cached)."""
    return tuple(generate_dataset(count=count, size=size, seed=seed))


def image_arrays(count: int = 100, size: int = DEFAULT_SIZE, seed: int = 2018) -> list[np.ndarray]:
    """Just the image arrays of :func:`image_suite` (most experiments only need these)."""
    return [image for _, image in image_suite(count=count, size=size, seed=seed)]


@lru_cache(maxsize=8)
def figure7_examples(size: int = DEFAULT_SIZE, seed: int = 7) -> dict[ImageClass, np.ndarray]:
    """One image per content class, as used by the Figure 7 experiment."""
    return class_examples(size=size, seed=seed)


def single_image(
    image_class: ImageClass | str = ImageClass.NATURAL,
    size: int = DEFAULT_SIZE,
    seed: int = 42,
) -> np.ndarray:
    """One deterministic image (used by the single-input experiments)."""
    return generate_image(image_class, size=size, seed=seed)


# ---------------------------------------------------------------------------
# Hotspot datasets
# ---------------------------------------------------------------------------
@lru_cache(maxsize=4)
def hotspot_suite(max_size: int | None = 256, seed: int = 2018) -> tuple[HotspotInput, ...]:
    """The Rodinia-style Hotspot suite (cached).

    The default caps grids at 256x256 so test and example runs stay fast;
    the benchmark harness passes ``max_size=None`` for the full suite.
    """
    return tuple(rodinia_input_suite(seed=seed, max_size=max_size))


def hotspot_single(size: int = 256, seed: int = 2018) -> HotspotInput:
    """A single Hotspot instance of the requested size."""
    from .hotspot import generate_hotspot_input

    return generate_hotspot_input(size, seed=seed)
