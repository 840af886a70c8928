"""Figure 9 — local work-group size tuning.

The paper compares the runtime of the accurate baseline and of the
Stencil1/Rows1 kernels across ten work-group shapes (2x128 ... 128x2) for
Gaussian, Inversion and Median, and observes that

* shapes with a larger x than y component are faster (better alignment
  with the row-major memory interface), and
* the optimal shape differs between the accurate baseline and the
  approximate kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.engine import PerforationEngine
from ..core.config import ROWS1_NN, STENCIL1_NN, WORK_GROUP_CANDIDATES
from ..core.tuning import WorkGroupTiming
from ..data import single_image
from ..data.images import ImageClass
from .common import (
    ExperimentSettings,
    PARAMETRIZATION_APPS,
    format_table,
    make_engine,
)


@dataclass(frozen=True)
class Figure9Result:
    """Per-application work-group sweep."""

    timings: dict[str, list[WorkGroupTiming]]
    best_shape: dict[str, dict[str, tuple[int, int]]]
    settings: ExperimentSettings


def run(
    quick: bool = False,
    image_size: int | None = None,
    apps: tuple[str, ...] = PARAMETRIZATION_APPS,
    work_groups: tuple[tuple[int, int], ...] = WORK_GROUP_CANDIDATES,
    engine: PerforationEngine | None = None,
) -> Figure9Result:
    """Run the Figure 9 experiment."""
    settings = ExperimentSettings.for_mode(quick=quick, image_size=image_size)
    engine = engine or make_engine()
    image = single_image(ImageClass.NATURAL, size=settings.image_size, seed=42)

    timings: dict[str, list[WorkGroupTiming]] = {}
    best: dict[str, dict[str, tuple[int, int]]] = {}
    for name in apps:
        configs = [ROWS1_NN] if engine.resolve_app(name).halo == 0 else [STENCIL1_NN, ROWS1_NN]
        app_timings = engine.sweep_work_groups(name, image, configs, work_groups)
        timings[name] = app_timings
        best[name] = {}
        for variant in {t.variant for t in app_timings}:
            candidates = [t for t in app_timings if t.variant == variant]
            winner = min(candidates, key=lambda t: t.runtime_s)
            best[name][variant] = winner.work_group
    return Figure9Result(timings=timings, best_shape=best, settings=settings)


def render(result: Figure9Result) -> str:
    """One row per (application, work-group shape), one column per variant."""
    blocks = []
    for name, timings in result.timings.items():
        variants = sorted({t.variant for t in timings})
        shapes = sorted({t.work_group for t in timings}, key=lambda s: (s[1], s[0]))
        baseline_best = min(
            (t.runtime_s for t in timings if t.variant == "Baseline"), default=None
        )
        headers = ["Work group"] + [f"{v} (norm.)" for v in variants]
        rows = []
        for shape in shapes:
            row = [f"{shape[0]}x{shape[1]}"]
            for variant in variants:
                matching = [
                    t for t in timings if t.variant == variant and t.work_group == shape
                ]
                if not matching or baseline_best is None:
                    row.append("-")
                else:
                    row.append(f"{matching[0].runtime_s / baseline_best:.2f}")
            rows.append(row)
        best_lines = [
            f"  best shape for {variant}: {shape[0]}x{shape[1]}"
            for variant, shape in sorted(result.best_shape[name].items())
        ]
        blocks.append(
            f"[{name}] runtime normalised to the best Baseline shape\n"
            + format_table(headers, rows)
            + "\n"
            + "\n".join(best_lines)
        )
    title = (
        "Figure 9: local work-group size tuning "
        f"({result.settings.image_size}x{result.settings.image_size} natural image)\n\n"
    )
    return title + "\n\n".join(blocks)
