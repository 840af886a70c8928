"""Shared infrastructure for the per-figure experiment harnesses.

Every experiment module exposes

* ``run(...)`` — executes the experiment and returns a result dataclass;
* ``render(result)`` — formats the result as the text table whose rows
  correspond to the series/bars/points of the paper's figure.

``quick=True`` shrinks the workload (smaller images, fewer inputs) so the
test suite can exercise every experiment end-to-end; the benchmark harness
runs the full-size versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..api.engine import PerforationEngine
from ..clsim.device import Device, firepro_w5100
from ..core.config import ApproximationConfig, ROWS1_NN, STENCIL1_NN

#: Image resolution used by the paper (1024 x 1024 grayscale).
PAPER_IMAGE_SIZE = 1024

#: Image resolution used by ``quick`` runs (tests).
QUICK_IMAGE_SIZE = 128

#: Number of images in the paper's dataset.
PAPER_IMAGE_COUNT = 100

#: Number of images used by ``quick`` runs.
QUICK_IMAGE_COUNT = 6

#: The Pareto-optimal configuration the paper selected per application for
#: Figure 6 (Section 6.2): row scheme 1 for Hotspot and Inversion, the
#: stencil scheme for the others.
FIGURE6_CONFIGS: dict[str, ApproximationConfig] = {
    "gaussian": STENCIL1_NN,
    "median": STENCIL1_NN,
    "sobel3": STENCIL1_NN,
    "sobel5": STENCIL1_NN,
    "hotspot": ROWS1_NN,
    "inversion": ROWS1_NN,
}

#: Applications shown in Figures 8-10 (the parametrisation studies).
PARAMETRIZATION_APPS = ("gaussian", "inversion", "median")


@dataclass(frozen=True)
class ExperimentSettings:
    """Workload sizing shared by the experiments."""

    image_size: int = PAPER_IMAGE_SIZE
    image_count: int = PAPER_IMAGE_COUNT
    hotspot_max_size: int | None = None
    quick: bool = False

    @classmethod
    def for_mode(cls, quick: bool = False, image_size: int | None = None) -> "ExperimentSettings":
        if quick:
            return cls(
                image_size=image_size or QUICK_IMAGE_SIZE,
                image_count=QUICK_IMAGE_COUNT,
                hotspot_max_size=128,
                quick=True,
            )
        return cls(
            image_size=image_size or PAPER_IMAGE_SIZE,
            image_count=PAPER_IMAGE_COUNT,
            hotspot_max_size=None,
            quick=False,
        )


def default_device() -> Device:
    """The simulated device all experiments run on."""
    return firepro_w5100()


def make_engine(
    device: Device | str | None = None,
    workers: int | str = "auto",
    backend: str | None = None,
) -> PerforationEngine:
    """The engine the experiment harnesses run on.

    One engine is shared across an experiment (or a whole report run): its
    reference/timing cache deduplicates work between figures, and its
    worker pool evaluates sweep configurations and dataset inputs in
    parallel.  Results are bit-for-bit identical for any worker count, and
    — for compiled-kernel runs — for any execution backend.
    """
    return PerforationEngine(
        device=device or default_device(), workers=workers, backend=backend
    )


# ---------------------------------------------------------------------------
# Text-table rendering
# ---------------------------------------------------------------------------
def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned text table (no external dependencies)."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rendered_rows)
    return "\n".join(lines)


def percent(value: float, digits: int = 2) -> str:
    """Format a fraction as a percentage string."""
    return f"{value * 100:.{digits}f}%"


def times(value: float, digits: int = 2) -> str:
    """Format a speedup factor."""
    return f"{value:.{digits}f}x"


def milliseconds(value_s: float, digits: int = 3) -> str:
    """Format a duration given in seconds as milliseconds."""
    return f"{value_s * 1e3:.{digits}f} ms"
