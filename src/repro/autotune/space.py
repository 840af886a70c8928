"""Declarative search-space model for the autotuner.

The paper's evaluation (Sections 6.3–6.4) explores a hand-picked ladder of
four configurations across ten work-group shapes.  The autotuner searches
the *full product space*

    scheme (incl. perforation rate) x reconstruction x work-group shape

which is strictly larger: the default space adds a more aggressive row
rate (``rows4``), both column rates the paper discusses as the Paraprox
analogue, and linear interpolation wherever it is defined.

A :class:`SearchSpace` is declarative — it names the axes; the concrete
candidate list for one application/input/device is produced by
:meth:`SearchSpace.configurations`, which applies the same validity rules
:class:`~repro.core.config.ApproximationConfig` enforces at evaluation
time (stencil scheme needs a halo, work groups must divide the global
size and fit the device).  Candidate order is deterministic (scheme-major,
then reconstruction, then work-group), which the seeded strategies rely
on for reproducible evaluation sequences.

Spaces are content-addressed: :meth:`SearchSpace.signature` hashes the
axes together with :data:`SPACE_VERSION`, and the signature keys the
persistent tuning database — bumping the version or changing an axis
simply misses, it can never alias stale records.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..clsim.device import Device
from ..core.config import WORK_GROUP_CANDIDATES, ApproximationConfig
from ..core.errors import ConfigurationError
from ..core.reconstruction import LINEAR_INTERPOLATION, NEAREST_NEIGHBOR
from ..core.schemes import (
    KIND_COLUMNS,
    KIND_NONE,
    KIND_ROWS,
    KIND_STENCIL,
    ColumnPerforation,
    PerforationScheme,
    RowPerforation,
    StencilPerforation,
)

#: Version of the space model; part of every space signature, so database
#: records produced under an older model can never be mistaken for current.
SPACE_VERSION = 1


# ---------------------------------------------------------------------------
# Scheme / configuration (de)serialization — shared with the tuning database.
# ---------------------------------------------------------------------------
def scheme_to_dict(scheme: PerforationScheme) -> dict:
    """JSON-serializable description of a scheme (round-trips exactly)."""
    kind = scheme.kind
    if kind == KIND_NONE:
        return {"kind": kind}
    if kind in (KIND_ROWS, KIND_COLUMNS):
        return {"kind": kind, "step": scheme.step}  # type: ignore[attr-defined]
    if kind == KIND_STENCIL:
        return {"kind": kind}
    raise ConfigurationError(f"cannot serialize scheme kind {kind!r}")


def scheme_from_dict(data: dict) -> PerforationScheme:
    """Inverse of :func:`scheme_to_dict`."""
    kind = data.get("kind")
    if kind == KIND_NONE:
        return PerforationScheme()
    if kind == KIND_ROWS:
        return RowPerforation(step=int(data["step"]))
    if kind == KIND_COLUMNS:
        return ColumnPerforation(step=int(data["step"]))
    if kind == KIND_STENCIL:
        return StencilPerforation()
    raise ConfigurationError(f"cannot deserialize scheme kind {kind!r}")


def config_to_dict(config: ApproximationConfig) -> dict:
    """JSON-serializable description of a configuration (round-trips exactly)."""
    return {
        "scheme": scheme_to_dict(config.scheme),
        "reconstruction": config.reconstruction,
        "work_group": list(config.work_group),
    }


def config_from_dict(data: dict) -> ApproximationConfig:
    """Inverse of :func:`config_to_dict`."""
    wx, wy = data["work_group"]
    return ApproximationConfig(
        scheme=scheme_from_dict(data["scheme"]),
        reconstruction=data["reconstruction"],
        work_group=(int(wx), int(wy)),
    )


def config_key(config: ApproximationConfig) -> str:
    """Deterministic identity string of one configuration.

    Thin alias of :attr:`ApproximationConfig.key` — unlike the figure
    label it distinguishes work-group shapes, reconstruction variants and
    scheme parameters (a row or column scheme's step).
    """
    return config.key


# ---------------------------------------------------------------------------
# The space itself
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SearchSpace:
    """Axes of the configuration space the tuner explores.

    ``schemes`` are perforation-scheme *instances* (each row/column rate is
    its own scheme, so the perforation-rate axis is folded into the scheme
    axis exactly as :mod:`repro.core.schemes` models it).
    """

    schemes: tuple[PerforationScheme, ...]
    reconstructions: tuple[str, ...] = (NEAREST_NEIGHBOR, LINEAR_INTERPOLATION)
    work_groups: tuple[tuple[int, int], ...] = WORK_GROUP_CANDIDATES

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ConfigurationError("a search space needs at least one scheme")
        if not self.reconstructions:
            raise ConfigurationError("a search space needs at least one reconstruction")
        if not self.work_groups:
            raise ConfigurationError("a search space needs at least one work group")

    # ------------------------------------------------------------------
    def configurations(
        self,
        halo: int = 0,
        global_size: tuple[int, int] | None = None,
        device: Device | None = None,
    ) -> list[ApproximationConfig]:
        """The valid candidate list, in deterministic enumeration order.

        Validity reuses the :class:`ApproximationConfig` rules: the stencil
        scheme needs a kernel with a halo (and is always reconstructed NN,
        so its reconstruction variants collapse to one candidate), work
        groups must divide ``global_size`` (when known) and fit within the
        device's work-group limit (when known).
        """
        configs: list[ApproximationConfig] = []
        seen: set[str] = set()
        for scheme in self.schemes:
            if scheme.kind == KIND_NONE:
                continue  # the accurate baseline is not a tuning candidate
            if scheme.requires_halo() and halo == 0:
                continue
            for reconstruction in self.reconstructions:
                if scheme.kind == KIND_STENCIL and reconstruction != NEAREST_NEIGHBOR:
                    # The paper always reconstructs the stencil scheme with
                    # NN; other techniques alias the same kernel.
                    continue
                for work_group in self.work_groups:
                    if not self.work_group_valid(work_group, global_size, device):
                        continue
                    config = ApproximationConfig(
                        scheme=scheme,
                        reconstruction=reconstruction,
                        work_group=work_group,
                    )
                    key = config_key(config)
                    if key in seen:
                        continue
                    seen.add(key)
                    configs.append(config)
        return configs

    @staticmethod
    def work_group_valid(
        work_group: tuple[int, int],
        global_size: tuple[int, int] | None,
        device: Device | None,
    ) -> bool:
        wx, wy = work_group
        if device is not None and wx * wy > device.max_work_group_size:
            return False
        if global_size is not None:
            width, height = global_size
            if width % wx or height % wy:
                return False
        return True

    # ------------------------------------------------------------------
    def neighbors(
        self,
        config: ApproximationConfig,
        halo: int = 0,
        global_size: tuple[int, int] | None = None,
        device: Device | None = None,
    ) -> list[ApproximationConfig]:
        """Single-axis moves from ``config``, for the local-search strategy.

        A neighbor changes exactly one axis: the scheme to an adjacent one
        in the space's scheme order, the reconstruction to another
        technique, or the work group to an adjacent candidate shape.  Only
        valid configurations are returned, in deterministic order.
        """
        valid = {
            config_key(c): c
            for c in self.configurations(halo, global_size, device)
        }
        moves: list[ApproximationConfig] = []

        def consider(candidate: ApproximationConfig) -> None:
            key = config_key(candidate)
            if key != config_key(config) and key in valid:
                moves.append(valid[key])

        scheme_keys = [s.name for s in self.schemes]
        if config.scheme.name in scheme_keys:
            index = scheme_keys.index(config.scheme.name)
            for delta in (-1, 1):
                neighbor = index + delta
                if 0 <= neighbor < len(self.schemes):
                    consider(
                        ApproximationConfig(
                            scheme=self.schemes[neighbor],
                            reconstruction=config.reconstruction,
                            work_group=config.work_group,
                        )
                    )
        for reconstruction in self.reconstructions:
            if reconstruction != config.reconstruction:
                consider(
                    ApproximationConfig(
                        scheme=config.scheme,
                        reconstruction=reconstruction,
                        work_group=config.work_group,
                    )
                )
        if config.work_group in self.work_groups:
            index = self.work_groups.index(config.work_group)
            for delta in (-1, 1):
                neighbor = index + delta
                if 0 <= neighbor < len(self.work_groups):
                    consider(
                        ApproximationConfig(
                            scheme=config.scheme,
                            reconstruction=config.reconstruction,
                            work_group=self.work_groups[neighbor],
                        )
                    )
        # Deduplicate while preserving order (axes can propose the same move).
        unique: dict[str, ApproximationConfig] = {}
        for move in moves:
            unique.setdefault(config_key(move), move)
        return list(unique.values())

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Canonical JSON-serializable description (basis of the signature)."""
        return {
            "version": SPACE_VERSION,
            "schemes": [scheme_to_dict(s) for s in self.schemes],
            "reconstructions": list(self.reconstructions),
            "work_groups": [list(wg) for wg in self.work_groups],
        }

    def signature(self) -> str:
        """Content hash of the space (includes :data:`SPACE_VERSION`)."""
        canonical = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def size(self, halo: int = 0) -> int:
        """Number of candidates before input/device filtering."""
        return len(self.configurations(halo))


def default_space() -> SearchSpace:
    """The default autotuning space — strictly larger than the paper's ladder.

    Row rates 50%/75%/87.5% (``rows1``/``rows2``/``rows4``), both column
    rates (the Paraprox analogue the paper argues against), the stencil
    scheme, and both reconstruction techniques, across all ten work-group
    candidates of Figure 9.
    """
    return SearchSpace(
        schemes=(
            RowPerforation(step=2),
            RowPerforation(step=4),
            RowPerforation(step=8),
            ColumnPerforation(step=2),
            ColumnPerforation(step=4),
            StencilPerforation(),
        ),
    )
