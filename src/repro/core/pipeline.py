"""Result types of the perforation pipeline (Figure 1b of the paper).

:meth:`repro.api.PerforationEngine.evaluate` runs the pipeline: the input
is perforated and reconstructed (through the application's approximate
execution path), the kernel output is compared against the accurate
reference to obtain the error, and the analytical timing model supplies
the runtime of both versions to obtain the speedup.  The dataclasses
defined here are its return types.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clsim.timing import TimingBreakdown
from .config import ACCURATE_CONFIG, ApproximationConfig
from .quality import ErrorSummary


@dataclass(frozen=True)
class ConfigurationResult:
    """Error and modelled performance of one (application, configuration) pair."""

    app_name: str
    config: ApproximationConfig
    error: float
    baseline_time_s: float
    approx_time_s: float
    baseline_timing: TimingBreakdown
    approx_timing: TimingBreakdown

    @property
    def speedup(self) -> float:
        """Speedup of the approximate kernel over the accurate baseline."""
        return self.baseline_time_s / self.approx_time_s

    @property
    def runtime_ms(self) -> float:
        """Modelled runtime of the approximate kernel in milliseconds."""
        return self.approx_time_s * 1e3

    def describe(self) -> str:
        return (
            f"{self.app_name:<10s} {self.config.label:<14s} "
            f"error={self.error * 100:6.2f}%  speedup={self.speedup:5.2f}x  "
            f"runtime={self.runtime_ms:7.3f} ms"
        )


@dataclass(frozen=True)
class DatasetResult:
    """Error distribution of one configuration over a dataset (Figure 6)."""

    app_name: str
    config: ApproximationConfig
    errors: tuple[float, ...]
    summary: ErrorSummary
    speedup: float
    baseline_time_s: float
    approx_time_s: float

    def describe(self) -> str:
        return (
            f"{self.app_name:<10s} {self.config.label:<14s} "
            f"median err={self.summary.median * 100:6.2f}%  "
            f"mean err={self.summary.mean * 100:6.2f}%  "
            f"p75={self.summary.p75 * 100:6.2f}%  max={self.summary.maximum * 100:6.2f}%  "
            f"speedup={self.speedup:5.2f}x"
        )


def baseline_config_for(app) -> ApproximationConfig:
    """The accurate configuration the speedups are measured against."""
    return ACCURATE_CONFIG.with_work_group(app.baseline_work_group)
