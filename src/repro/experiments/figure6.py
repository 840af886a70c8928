"""Figure 6 — input-data sensitivity and per-application speedup.

The paper runs each application on 100 images (Hotspot: the 8 Rodinia
inputs) with its Pareto-optimal configuration and shows (top) the error
distribution per application and (bottom) the speedup over the accurate
baseline.  Paper values: Gaussian 2.2x, Inversion 1.59x, Median 1.62x,
Hotspot 1.98x, Sobel3 1.79x, Sobel5 3.05x; median errors mostly below 5%
with outliers up to ~20% (Sobel5 higher).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.engine import PerforationEngine
from ..core.pipeline import DatasetResult
from ..data import hotspot_suite, image_arrays
from .common import (
    ExperimentSettings,
    FIGURE6_CONFIGS,
    format_table,
    make_engine,
    percent,
    times,
)

#: Speedups reported in the paper (for the EXPERIMENTS.md comparison).
PAPER_SPEEDUPS = {
    "gaussian": 2.2,
    "inversion": 1.59,
    "median": 1.62,
    "hotspot": 1.98,
    "sobel3": 1.79,
    "sobel5": 3.05,
}

#: Applications in the order Figure 6 plots them.
FIGURE6_APPS = ("gaussian", "inversion", "median", "hotspot", "sobel3", "sobel5")


@dataclass(frozen=True)
class Figure6Result:
    """Per-application dataset results (error distribution + speedup)."""

    per_app: dict[str, DatasetResult]
    settings: ExperimentSettings


def run(
    quick: bool = False,
    image_size: int | None = None,
    image_count: int | None = None,
    apps: tuple[str, ...] = FIGURE6_APPS,
    engine: PerforationEngine | None = None,
) -> Figure6Result:
    """Run the Figure 6 experiment."""
    settings = ExperimentSettings.for_mode(quick=quick, image_size=image_size)
    count = image_count if image_count is not None else settings.image_count
    engine = engine or make_engine()

    images = image_arrays(count=count, size=settings.image_size)
    hotspot_inputs = list(hotspot_suite(max_size=settings.hotspot_max_size))

    per_app: dict[str, DatasetResult] = {}
    for name in apps:
        config = FIGURE6_CONFIGS[name]
        dataset = hotspot_inputs if name == "hotspot" else images
        per_app[name] = engine.evaluate_dataset(name, dataset, config)
    return Figure6Result(per_app=per_app, settings=settings)


def render(result: Figure6Result) -> str:
    """Text rendering: one row per application (boxplot statistics + speedup)."""
    headers = [
        "Application",
        "Config",
        "Median err",
        "Mean err",
        "P75 err",
        "Max err",
        "Speedup",
        "Paper speedup",
    ]
    rows = []
    for name, dataset_result in result.per_app.items():
        summary = dataset_result.summary
        rows.append(
            [
                name,
                dataset_result.config.label,
                percent(summary.median),
                percent(summary.mean),
                percent(summary.p75),
                percent(summary.maximum),
                times(dataset_result.speedup),
                times(PAPER_SPEEDUPS.get(name, float("nan"))),
            ]
        )
    title = (
        "Figure 6: error distribution over the input dataset and speedup vs. the baseline\n"
        f"(images: {result.settings.image_count} @ {result.settings.image_size}x"
        f"{result.settings.image_size}, hotspot: Rodinia-style suite)\n"
    )
    return title + format_table(headers, rows)
