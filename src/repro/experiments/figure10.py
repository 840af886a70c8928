"""Figure 10 — Pareto-optimal configurations vs. Paraprox.

For Gaussian, Inversion and Median the paper plots every configuration in
the (speedup, error) plane: the accurate kernel, the Paraprox output
approximation schemes (Center/Rows/Cols at aggressiveness 1 and 2) and the
proposed Stencil1/Rows1 input-perforation schemes, and connects the
Pareto-optimal points.  Key paper numbers: Gaussian Stencil1 reaches 0.45%
error at 2.1x and Rows1 2.9% at 2.2x, while Paraprox Rows1 needs 7.5%
error for 2.08x; Cols becomes slower than accurate for Inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.engine import PerforationEngine
from ..baselines.paraprox import PARAPROX_SCHEMES, evaluate_all_schemes
from ..core.config import ROWS1_NN, STENCIL1_NN
from ..core.pareto import pareto_front
from ..data import single_image
from ..data.images import ImageClass
from .common import (
    ExperimentSettings,
    PARAMETRIZATION_APPS,
    format_table,
    make_engine,
    percent,
    times,
)


@dataclass(frozen=True)
class ParetoPoint:
    """One point of the Figure 10 scatter plot."""

    label: str
    family: str  # "ours", "paraprox" or "accurate"
    speedup: float
    error: float
    pareto_optimal: bool = False


@dataclass(frozen=True)
class Figure10Result:
    """Per-application point sets with the Pareto front marked."""

    points: dict[str, list[ParetoPoint]]
    settings: ExperimentSettings


def _collect_points(engine: PerforationEngine, app, image) -> list[ParetoPoint]:
    points: list[ParetoPoint] = [
        ParetoPoint(label="Accurate", family="accurate", speedup=1.0, error=0.0)
    ]
    our_configs = [ROWS1_NN] if app.halo == 0 else [STENCIL1_NN, ROWS1_NN]
    for result in engine.evaluate_many(app, image, our_configs):
        points.append(
            ParetoPoint(
                label=result.config.label,
                family="ours",
                speedup=result.speedup,
                error=result.error,
            )
        )
    for result in evaluate_all_schemes(
        app, image, device=engine.device, schemes=PARAPROX_SCHEMES
    ):
        points.append(
            ParetoPoint(
                label=result.label,
                family="paraprox",
                speedup=result.speedup,
                error=result.error,
            )
        )
    front = pareto_front(points)
    front_labels = {p.label for p in front}
    return [
        ParetoPoint(
            label=p.label,
            family=p.family,
            speedup=p.speedup,
            error=p.error,
            pareto_optimal=p.label in front_labels,
        )
        for p in points
    ]


def run(
    quick: bool = False,
    image_size: int | None = None,
    apps: tuple[str, ...] = PARAMETRIZATION_APPS,
    engine: PerforationEngine | None = None,
) -> Figure10Result:
    """Run the Figure 10 experiment."""
    settings = ExperimentSettings.for_mode(quick=quick, image_size=image_size)
    engine = engine or make_engine()
    image = single_image(ImageClass.NATURAL, size=settings.image_size, seed=42)
    points = {name: _collect_points(engine, engine.resolve_app(name), image) for name in apps}
    return Figure10Result(points=points, settings=settings)


def ours_dominates_paraprox(result: Figure10Result, app_name: str) -> bool:
    """Whether one of our configurations dominates every Paraprox point.

    This is the claim the figure supports: the proposed schemes improve the
    error significantly at similar (or better) speedup.
    """
    points = result.points[app_name]
    ours = [p for p in points if p.family == "ours"]
    paraprox = [p for p in points if p.family == "paraprox"]
    if not ours or not paraprox:
        return False
    return all(
        any(o.speedup >= p.speedup and o.error <= p.error for o in ours) for p in paraprox
    )


def render(result: Figure10Result) -> str:
    blocks = []
    for name, points in result.points.items():
        headers = ["Configuration", "Family", "Speedup", "Error", "Pareto-optimal"]
        rows = [
            [p.label, p.family, times(p.speedup), percent(p.error), "yes" if p.pareto_optimal else ""]
            for p in sorted(points, key=lambda p: p.speedup)
        ]
        dominance = (
            "our schemes dominate every Paraprox scheme"
            if ours_dominates_paraprox(result, name)
            else "our schemes do NOT dominate every Paraprox scheme"
        )
        blocks.append(f"[{name}] {dominance}\n" + format_table(headers, rows))
    title = (
        "Figure 10: Pareto-optimal solutions of the proposed and Paraprox schemes "
        f"({result.settings.image_size}x{result.settings.image_size} natural image)\n\n"
    )
    return title + "\n\n".join(blocks)
