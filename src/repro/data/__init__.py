"""``repro.data`` — synthetic input data for the evaluation.

Substitutes for data the paper used but which cannot be redistributed:

* :mod:`repro.data.images` — synthetic grayscale images in three content
  classes (flat / natural / pattern), standing in for the USC-SIPI
  database;
* :mod:`repro.data.hotspot` — Rodinia-style power/temperature grids;
* :mod:`repro.data.datasets` — the dataset registry the experiments use.
"""

from .datasets import (
    DatasetDescription,
    available_datasets,
    figure7_examples,
    hotspot_single,
    hotspot_suite,
    image_arrays,
    image_suite,
    single_image,
)
from .hotspot import (
    AMBIENT_TEMPERATURE,
    HotspotInput,
    RODINIA_SIZES,
    generate_hotspot_input,
    generate_power_grid,
    generate_temperature_grid,
    rodinia_input_suite,
)
from .images import (
    DEFAULT_SIZE,
    IMAGE_MAX,
    IMAGE_MIN,
    ImageClass,
    ImageSpec,
    class_examples,
    flat_image,
    generate_dataset,
    generate_image,
    natural_image,
    pattern_image,
)

__all__ = [
    "AMBIENT_TEMPERATURE",
    "DatasetDescription",
    "DEFAULT_SIZE",
    "HotspotInput",
    "IMAGE_MAX",
    "IMAGE_MIN",
    "ImageClass",
    "ImageSpec",
    "RODINIA_SIZES",
    "available_datasets",
    "class_examples",
    "figure7_examples",
    "flat_image",
    "generate_dataset",
    "generate_hotspot_input",
    "generate_image",
    "generate_power_grid",
    "generate_temperature_grid",
    "hotspot_single",
    "hotspot_suite",
    "image_arrays",
    "image_suite",
    "natural_image",
    "pattern_image",
    "rodinia_input_suite",
    "single_image",
]
