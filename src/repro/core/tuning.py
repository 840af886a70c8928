"""Result types of the parameter exploration.

Section 6.3 of the paper explores two parameter axes — the perforation
scheme / reconstruction technique (Figure 8) and the local work-group size
(Figure 9) — and Section 6.4 collects the Pareto-optimal configurations
(Figure 10).  :class:`repro.api.PerforationEngine` runs those sweeps
(:meth:`~repro.api.PerforationEngine.sweep`,
:meth:`~repro.api.PerforationEngine.sweep_work_groups`,
:meth:`~repro.api.PerforationEngine.full_sweep`); the dataclasses defined
here are their return types.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import ApproximationConfig
from .errors import TuningError
from .pareto import pareto_front


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration within a sweep."""

    config: ApproximationConfig
    error: float
    speedup: float
    runtime_s: float

    @property
    def label(self) -> str:
        return self.config.label

    def describe(self) -> str:
        return (
            f"{self.label:<14s} wg={self.config.work_group!s:<9s} "
            f"error={self.error * 100:6.2f}%  speedup={self.speedup:5.2f}x"
        )


@dataclass
class SweepResult:
    """All points of one parameter sweep for one application."""

    app_name: str
    points: list[SweepPoint] = field(default_factory=list)

    def pareto_optimal(self) -> list[SweepPoint]:
        """Pareto-optimal subset (maximise speedup, minimise error)."""
        return pareto_front(self.points)

    def best_for_error_budget(self, budget: float) -> SweepPoint:
        """Fastest configuration whose error stays within ``budget``."""
        admissible = [p for p in self.points if p.error <= budget]
        if not admissible:
            raise TuningError(
                f"no configuration of {self.app_name!r} meets the error budget "
                f"{budget:.2%} (best achievable is {min(p.error for p in self.points):.2%})"
            )
        return max(admissible, key=lambda p: p.speedup)

    def best_error(self) -> SweepPoint:
        """The most accurate configuration."""
        if not self.points:
            raise TuningError("sweep produced no points")
        return min(self.points, key=lambda p: p.error)

    def fastest(self) -> SweepPoint:
        """The fastest configuration."""
        if not self.points:
            raise TuningError("sweep produced no points")
        return max(self.points, key=lambda p: p.speedup)


@dataclass(frozen=True)
class WorkGroupTiming:
    """Modelled runtime of one kernel variant for one work-group shape."""

    work_group: tuple[int, int]
    variant: str
    runtime_s: float
