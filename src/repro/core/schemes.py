"""Perforation schemes.

A *perforation scheme* decides which part of a work group's input tile is
fetched from global memory.  The paper proposes two families (Section 4.4):

* **row schemes** skip the loading of tile rows — ``Rows1`` loads every
  second row, ``Rows2`` loads one row in four;
* the **stencil scheme** (``Stencil1``) loads only the core of the tile
  and skips the halo needed by the stencil.

For completeness the module also provides column and random schemes (the
paper discusses both: columns as the Paraprox analogue that aligns badly
with the memory layout, random as the statistically ideal but
memory-unfriendly choice).

Each scheme can describe itself in two equivalent ways:

* :meth:`PerforationScheme.loaded_mask` — a boolean mask over the tile
  saying which elements are fetched (used by the NumPy fast path and by
  tests);
* :meth:`PerforationScheme.loaded_fraction` — the fraction of the tile
  fetched from DRAM (used by the analytical timing model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.registry import Registry
from .errors import SchemeError

#: Scheme kinds (mirrors :mod:`repro.kernellang.transforms.perforation`).
KIND_NONE = "none"
KIND_ROWS = "rows"
KIND_COLUMNS = "columns"
KIND_STENCIL = "stencil"
KIND_RANDOM = "random"


@dataclass(frozen=True)
class PerforationScheme:
    """Base class: the identity scheme (no perforation)."""

    name: str = "accurate"

    @property
    def kind(self) -> str:
        return KIND_NONE

    # ------------------------------------------------------------------
    def loaded_mask(self, tile_h: int, tile_w: int, halo: int = 0) -> np.ndarray:
        """Boolean mask of shape (tile_h, tile_w): True where data is fetched."""
        self._validate_tile(tile_h, tile_w, halo)
        return np.ones((tile_h, tile_w), dtype=bool)

    def loaded_fraction(self, tile_h: int, tile_w: int, halo: int = 0) -> float:
        """Fraction of tile elements fetched from global memory."""
        mask = self.loaded_mask(tile_h, tile_w, halo)
        return float(mask.sum()) / mask.size

    def rows_loaded_fraction(self, tile_h: int, halo: int = 0) -> float:
        """Fraction of tile *rows* that are (at least partially) fetched."""
        mask = self.loaded_mask(tile_h, max(1, 2 * halo + 1), halo)
        return float(mask.any(axis=1).sum()) / tile_h

    def requires_halo(self) -> bool:
        """Whether the scheme only makes sense for kernels with a halo."""
        return False

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_tile(tile_h: int, tile_w: int, halo: int) -> None:
        if tile_h <= 0 or tile_w <= 0:
            raise SchemeError(f"tile dimensions must be positive, got {tile_w}x{tile_h}")
        if halo < 0:
            raise SchemeError(f"halo must be non-negative, got {halo}")
        if 2 * halo >= tile_h or 2 * halo >= tile_w:
            raise SchemeError(
                f"halo {halo} is too large for a {tile_w}x{tile_h} tile"
            )

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"{self.name}: no perforation"


@dataclass(frozen=True)
class RowPerforation(PerforationScheme):
    """Fetch every ``step``-th tile row; skip the others.

    ``step=2`` is the paper's *Rows1* (50% of rows skipped), ``step=4`` is
    *Rows2* (75% skipped).
    """

    step: int = 2
    name: str = ""

    def __post_init__(self) -> None:
        if self.step < 2:
            raise SchemeError("row perforation requires step >= 2")
        if not self.name:
            object.__setattr__(self, "name", f"rows{self.step // 2}")

    @property
    def kind(self) -> str:
        return KIND_ROWS

    def loaded_mask(self, tile_h: int, tile_w: int, halo: int = 0) -> np.ndarray:
        self._validate_tile(tile_h, tile_w, halo)
        mask = np.zeros((tile_h, tile_w), dtype=bool)
        mask[:: self.step, :] = True
        return mask

    def describe(self) -> str:
        return (
            f"{self.name}: fetch 1 of every {self.step} tile rows "
            f"({100.0 / self.step:.0f}% of the input)"
        )


@dataclass(frozen=True)
class ColumnPerforation(PerforationScheme):
    """Fetch every ``step``-th tile column.

    Provided for the scheme-comparison experiments: columns perforate the
    same amount of data as rows but interact badly with row-major memory
    (every fetched row segment is short), which the timing model penalises.
    """

    step: int = 2
    name: str = ""

    def __post_init__(self) -> None:
        if self.step < 2:
            raise SchemeError("column perforation requires step >= 2")
        if not self.name:
            object.__setattr__(self, "name", f"cols{self.step // 2}")

    @property
    def kind(self) -> str:
        return KIND_COLUMNS

    def loaded_mask(self, tile_h: int, tile_w: int, halo: int = 0) -> np.ndarray:
        self._validate_tile(tile_h, tile_w, halo)
        mask = np.zeros((tile_h, tile_w), dtype=bool)
        mask[:, :: self.step] = True
        return mask

    def describe(self) -> str:
        return f"{self.name}: fetch 1 of every {self.step} tile columns"


@dataclass(frozen=True)
class StencilPerforation(PerforationScheme):
    """Fetch only the tile core; skip the stencil halo (the paper's *Stencil1*)."""

    name: str = "stencil1"

    @property
    def kind(self) -> str:
        return KIND_STENCIL

    def requires_halo(self) -> bool:
        return True

    def loaded_mask(self, tile_h: int, tile_w: int, halo: int = 0) -> np.ndarray:
        self._validate_tile(tile_h, tile_w, halo)
        if halo == 0:
            raise SchemeError(
                "the stencil scheme needs a halo; 1x1 kernels (e.g. Inversion) "
                "must use a row scheme instead"
            )
        mask = np.zeros((tile_h, tile_w), dtype=bool)
        mask[halo : tile_h - halo, halo : tile_w - halo] = True
        return mask

    def describe(self) -> str:
        return f"{self.name}: fetch the tile core only, skip the halo"


@dataclass(frozen=True)
class RandomPerforation(PerforationScheme):
    """Fetch a random ``fraction`` of the tile elements.

    Statistically this distributes the error most evenly (Section 4.4), but
    every fetched element needs its own memory transaction, which the
    timing model charges accordingly — reproducing the paper's argument for
    why random schemes are not used on GPUs.
    """

    fraction: float = 0.5
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise SchemeError("random perforation fraction must be in (0, 1]")
        if not self.name:
            object.__setattr__(self, "name", f"random{int(self.fraction * 100)}")

    @property
    def kind(self) -> str:
        return KIND_RANDOM

    def loaded_mask(self, tile_h: int, tile_w: int, halo: int = 0) -> np.ndarray:
        self._validate_tile(tile_h, tile_w, halo)
        rng = np.random.default_rng(self.seed + tile_h * 1000 + tile_w)
        mask = rng.random((tile_h, tile_w)) < self.fraction
        # Guarantee at least one loaded element so reconstruction is defined.
        if not mask.any():
            mask[tile_h // 2, tile_w // 2] = True
        return mask

    def describe(self) -> str:
        return f"{self.name}: fetch a random {self.fraction:.0%} of the tile"


# ---------------------------------------------------------------------------
# Canonical scheme instances used throughout the experiments.
# ---------------------------------------------------------------------------
ACCURATE = PerforationScheme()
ROWS1 = RowPerforation(step=2)
ROWS2 = RowPerforation(step=4)
COLS1 = ColumnPerforation(step=2)
STENCIL1 = StencilPerforation()

#: Registry of canonical scheme instances.  Custom schemes can be added
#: with :func:`register_scheme` and are then resolvable by name wherever a
#: scheme is accepted (e.g. when building configurations for a sweep).
SCHEMES: Registry[PerforationScheme] = Registry("scheme", error=SchemeError)

for _scheme in (ACCURATE, ROWS1, ROWS2, COLS1, STENCIL1):
    SCHEMES.register(_scheme.name, _scheme)


def register_scheme(
    scheme: PerforationScheme | None = None, *, name: str | None = None, overwrite: bool = False
):
    """Register a scheme instance under its ``name`` (or an explicit one)."""
    if scheme is None:
        if name is None:
            raise ValueError("register_scheme needs a scheme or a name")
        return SCHEMES.register(name, overwrite=overwrite)
    return SCHEMES.register(name or scheme.name, scheme, overwrite=overwrite)


def available_schemes() -> list[str]:
    """Names of the registered schemes."""
    return SCHEMES.names()


def get_scheme(name: str) -> PerforationScheme:
    """Look up a registered scheme by name."""
    return SCHEMES.get(name)
