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


@dataclass
class SweepResult:
    """All points of one parameter sweep for one application."""

    app_name: str
    points: list[SweepPoint] = field(default_factory=list)

    def pareto_optimal(self) -> list[SweepPoint]:
        """Pareto-optimal subset (maximise speedup, minimise error)."""
        return pareto_front(self.points)


@dataclass(frozen=True)
class WorkGroupTiming:
    """Modelled runtime of one kernel variant for one work-group shape."""

    work_group: tuple[int, int]
    variant: str
    runtime_s: float
