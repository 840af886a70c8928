"""Approximation configurations.

A configuration bundles the three knobs the paper explores (Section 6.3):
the perforation scheme, the reconstruction technique, and the work-group
size.  The canonical configurations of the evaluation (``Rows1:NN``,
``Rows2:NN``, ``Rows1:LI``, ``Stencil1:NN``) are provided as constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigurationError
from .reconstruction import (
    LINEAR_INTERPOLATION,
    NEAREST_NEIGHBOR,
    TECHNIQUE_LABELS,
    TECHNIQUES,
)
from .schemes import (
    ACCURATE,
    KIND_NONE,
    KIND_STENCIL,
    ROWS1,
    ROWS2,
    STENCIL1,
    PerforationScheme,
)

#: The ten work-group shapes compared in Figure 9 of the paper.
WORK_GROUP_CANDIDATES: tuple[tuple[int, int], ...] = (
    (2, 128),
    (4, 64),
    (8, 8),
    (8, 16),
    (8, 32),
    (16, 8),
    (16, 16),
    (32, 8),
    (64, 4),
    (128, 2),
)

#: Default work-group shape used when none is specified.
DEFAULT_WORK_GROUP: tuple[int, int] = (16, 16)


@dataclass(frozen=True)
class ApproximationConfig:
    """One point in the paper's parameter space."""

    scheme: PerforationScheme = ACCURATE
    reconstruction: str = NEAREST_NEIGHBOR
    work_group: tuple[int, int] = DEFAULT_WORK_GROUP

    def __post_init__(self) -> None:
        if self.reconstruction not in TECHNIQUES:
            raise ConfigurationError(
                f"unknown reconstruction technique {self.reconstruction!r}"
            )
        wx, wy = self.work_group
        if wx <= 0 or wy <= 0:
            raise ConfigurationError(
                f"work-group dimensions must be positive, got {self.work_group}"
            )

    # ------------------------------------------------------------------
    @property
    def is_accurate(self) -> bool:
        """Whether this configuration performs no approximation."""
        return self.scheme.kind == KIND_NONE

    @property
    def label(self) -> str:
        """Figure-style label such as ``Rows1:NN`` or ``Stencil1:NN``."""
        if self.is_accurate:
            return "Accurate"
        scheme = self.scheme.name.capitalize()
        if self.scheme.kind == KIND_STENCIL:
            # The paper always reconstructs the stencil scheme with NN.
            return f"{scheme}:NN"
        return f"{scheme}:{TECHNIQUE_LABELS[self.reconstruction]}"

    @property
    def key(self) -> str:
        """Deterministic *identity* string of this configuration.

        Unlike :attr:`label` (a figure caption that collapses work-group
        shapes, reconstruction-invariant schemes and scheme parameters)
        this distinguishes every distinct configuration: the scheme repr
        carries all scheme parameters (a row or column step).  Used
        wherever configurations key dictionaries — calibration buckets,
        tuner memoization, search-space dedup."""
        wx, wy = self.work_group
        return f"{self.scheme!r}|{self.reconstruction}@{wx}x{wy}"

    def with_work_group(self, work_group: tuple[int, int]) -> "ApproximationConfig":
        """Copy of this configuration with a different work-group shape."""
        return replace(self, work_group=work_group)

    def validate_for_halo(self, halo: int) -> None:
        """Check applicability to a kernel with the given stencil halo.

        The stencil scheme perforates the halo, so it cannot be applied to
        1x1 kernels (the paper makes the same restriction for Inversion).
        """
        if self.scheme.requires_halo() and halo == 0:
            raise ConfigurationError(
                f"configuration {self.label} requires a stencil halo but the kernel has none"
            )

    def describe(self) -> str:
        wx, wy = self.work_group
        return f"{self.label} @ work group {wx}x{wy} ({self.scheme.describe()})"


# ---------------------------------------------------------------------------
# Canonical configurations (Figure 8 / Figure 10).
# ---------------------------------------------------------------------------
ACCURATE_CONFIG = ApproximationConfig(scheme=ACCURATE)
ROWS1_NN = ApproximationConfig(scheme=ROWS1, reconstruction=NEAREST_NEIGHBOR)
ROWS2_NN = ApproximationConfig(scheme=ROWS2, reconstruction=NEAREST_NEIGHBOR)
ROWS1_LI = ApproximationConfig(scheme=ROWS1, reconstruction=LINEAR_INTERPOLATION)
STENCIL1_NN = ApproximationConfig(scheme=STENCIL1, reconstruction=NEAREST_NEIGHBOR)

#: The four configurations compared in Figure 8.
FIGURE8_CONFIGS: tuple[ApproximationConfig, ...] = (
    ROWS1_NN,
    ROWS2_NN,
    ROWS1_LI,
    STENCIL1_NN,
)


def default_configurations(halo: int) -> list[ApproximationConfig]:
    """The paper's configurations applicable to a kernel with ``halo``.

    Kernels without a halo (1x1 filters) cannot use the stencil scheme.
    """
    configs = [ROWS1_NN, ROWS2_NN, ROWS1_LI]
    if halo > 0:
        configs.append(STENCIL1_NN)
    return configs
