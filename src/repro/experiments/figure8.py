"""Figure 8 — perforation schemes with different parameters.

For Gaussian, Inversion and Median the paper plots runtime against mean
relative error for four configurations: ``Rows1:NN``, ``Rows2:NN``,
``Rows1:LI`` and ``Stencil1:NN``.  Findings the reproduction should show:

* more aggressive perforation (Rows2) has a larger error than Rows1;
* linear interpolation reduces the error of Rows1 (paper: Gaussian -45%,
  Inversion -21%, Median -34%) at essentially the same runtime;
* the stencil scheme's error is below 1%;
* Inversion cannot use the stencil scheme (1x1 filter).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.engine import PerforationEngine
from ..core.config import FIGURE8_CONFIGS, ApproximationConfig
from ..core.tuning import SweepResult
from ..data import single_image
from ..data.images import ImageClass
from .common import (
    ExperimentSettings,
    PARAMETRIZATION_APPS,
    format_table,
    make_engine,
    milliseconds,
    percent,
)


@dataclass(frozen=True)
class Figure8Result:
    """Per-application sweep over the four paper configurations."""

    sweeps: dict[str, SweepResult]
    li_error_reduction: dict[str, float]
    settings: ExperimentSettings


def _li_reduction(sweep: SweepResult) -> float:
    """Relative error reduction of Rows1:LI over Rows1:NN (paper: 21-45%)."""
    by_label = {point.label: point for point in sweep.points}
    nn = by_label.get("Rows1:NN")
    li = by_label.get("Rows1:LI")
    if nn is None or li is None or nn.error == 0:
        return 0.0
    return 1.0 - li.error / nn.error


def run(
    quick: bool = False,
    image_size: int | None = None,
    apps: tuple[str, ...] = PARAMETRIZATION_APPS,
    configs: tuple[ApproximationConfig, ...] = FIGURE8_CONFIGS,
    engine: PerforationEngine | None = None,
) -> Figure8Result:
    """Run the Figure 8 experiment."""
    settings = ExperimentSettings.for_mode(quick=quick, image_size=image_size)
    engine = engine or make_engine()
    image = single_image(ImageClass.NATURAL, size=settings.image_size, seed=42)

    sweeps: dict[str, SweepResult] = {}
    reductions: dict[str, float] = {}
    for name in apps:
        halo = engine.resolve_app(name).halo
        applicable = [c for c in configs if not (c.scheme.requires_halo() and halo == 0)]
        sweep = engine.sweep(name, image, applicable)
        sweeps[name] = sweep
        reductions[name] = _li_reduction(sweep)
    return Figure8Result(sweeps=sweeps, li_error_reduction=reductions, settings=settings)


def render(result: Figure8Result) -> str:
    headers = ["Application", "Config", "Runtime", "MRE", "Speedup"]
    rows = []
    for name, sweep in result.sweeps.items():
        for point in sweep.points:
            rows.append(
                [
                    name,
                    point.label,
                    milliseconds(point.runtime_s),
                    percent(point.error),
                    f"{point.speedup:.2f}x",
                ]
            )
    reduction_lines = [
        f"  {name}: Rows1:LI reduces the Rows1:NN error by {percent(reduction, 1)}"
        for name, reduction in result.li_error_reduction.items()
    ]
    title = (
        "Figure 8: perforation schemes with different parameters "
        f"({result.settings.image_size}x{result.settings.image_size} natural image)\n"
    )
    return (
        title
        + format_table(headers, rows)
        + "\nLinear-interpolation error reduction (paper: Gaussian -45%, Inversion -21%, Median -34%):\n"
        + "\n".join(reduction_lines)
    )
