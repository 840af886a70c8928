"""Figure 7 — how the error depends on the image content.

The paper illustrates the input-data sensitivity with three example inputs
to the Median application: an image with large uniform areas (error
0.12%), a countryside photograph (5.05%, about the dataset median) and a
high-frequency pattern image (19.32%).  The experiment reproduces the
three-class comparison with the synthetic image classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.engine import PerforationEngine
from ..core.config import ApproximationConfig, ROWS1_NN
from ..data import figure7_examples
from ..data.images import ImageClass
from .common import ExperimentSettings, format_table, make_engine, percent

#: Errors the paper reports for its three example images.
PAPER_ERRORS = {
    ImageClass.FLAT: 0.0012,
    ImageClass.NATURAL: 0.0505,
    ImageClass.PATTERN: 0.1932,
}


@dataclass(frozen=True)
class Figure7Result:
    """Per-class error of the Median application."""

    app_name: str
    config: ApproximationConfig
    errors: dict[ImageClass, float]
    settings: ExperimentSettings


def run(
    quick: bool = False,
    image_size: int | None = None,
    app_name: str = "median",
    config: ApproximationConfig = ROWS1_NN,
    engine: PerforationEngine | None = None,
) -> Figure7Result:
    """Run the Figure 7 experiment (Median on one image per class)."""
    settings = ExperimentSettings.for_mode(quick=quick, image_size=image_size)
    engine = engine or make_engine()
    examples = figure7_examples(size=settings.image_size)
    errors = {
        image_class: engine.evaluate(app_name, image, config).error
        for image_class, image in examples.items()
    }
    return Figure7Result(app_name=app_name, config=config, errors=errors, settings=settings)


def render(result: Figure7Result) -> str:
    headers = ["Image class", "Error", "Paper error", "Ordering check"]
    ordered = sorted(result.errors.items(), key=lambda item: item[1])
    ranks = {image_class: rank for rank, (image_class, _) in enumerate(ordered)}
    expected = {ImageClass.FLAT: 0, ImageClass.NATURAL: 1, ImageClass.PATTERN: 2}
    rows = []
    for image_class in (ImageClass.FLAT, ImageClass.NATURAL, ImageClass.PATTERN):
        rows.append(
            [
                image_class.value,
                percent(result.errors[image_class]),
                percent(PAPER_ERRORS[image_class]),
                "ok" if ranks[image_class] == expected[image_class] else "MISMATCH",
            ]
        )
    title = (
        f"Figure 7: input data and corresponding error "
        f"({result.app_name}, {result.config.label}, "
        f"{result.settings.image_size}x{result.settings.image_size})\n"
    )
    return title + format_table(headers, rows)
