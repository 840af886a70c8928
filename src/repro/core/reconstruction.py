"""Reconstruction techniques and approximate input samplers.

Two entirely equivalent implementations of the paper's *data perforation +
data reconstruction* pipeline exist in this project:

* the **compiler path** (:mod:`repro.kernellang.transforms`) generates
  OpenCL-C kernels whose prefetch loops skip data and whose reconstruction
  loops fill it back in local memory — this is what a real GPU would run;
* the **NumPy fast path** in this module reproduces the same semantics
  vectorised over whole images, so the large parameter sweeps of the
  evaluation (100 input images x many configurations) run in reasonable
  time.

The central abstraction is the :class:`InputSampler`: an *approximate view*
of a kernel's input buffer.  ``sampler.read_offset(dx, dy)`` returns, for
every output pixel, the value the (possibly perforated + reconstructed)
input provides at stencil offset ``(dx, dy)``.  The accurate sampler simply
shifts the original image; perforated samplers serve the values a work
group's reconstructed local tile would contain.  Each sampler builds its
planes once, from a snapshot of the image taken at construction, and serves
them read-only: copy a served array before writing to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReconstructionError, SchemeError
from .schemes import (
    KIND_COLUMNS,
    KIND_NONE,
    KIND_RANDOM,
    KIND_ROWS,
    KIND_STENCIL,
    PerforationScheme,
)

#: Reconstruction technique identifiers (Section 5.1 of the paper).
NEAREST_NEIGHBOR = "nearest-neighbor"
LINEAR_INTERPOLATION = "linear-interpolation"

TECHNIQUES = (NEAREST_NEIGHBOR, LINEAR_INTERPOLATION)

#: Short labels used in the paper's figures (NN / LI).
TECHNIQUE_LABELS = {NEAREST_NEIGHBOR: "NN", LINEAR_INTERPOLATION: "LI"}


def _check_technique(technique: str) -> None:
    if technique not in TECHNIQUES:
        raise ReconstructionError(
            f"unknown reconstruction technique {technique!r}; expected one of {TECHNIQUES}"
        )


def _check_image(image: np.ndarray) -> np.ndarray:
    array = np.asarray(image, dtype=np.float64)
    if array.ndim != 2 or array.size == 0:
        raise ReconstructionError(
            f"expected a non-empty 2D image, got shape {array.shape}"
        )
    return array


# ---------------------------------------------------------------------------
# Row / column reconstruction (global equivalents of the tile operations)
# ---------------------------------------------------------------------------
def loaded_row_indices(height: int, step: int, phase: int = 0) -> np.ndarray:
    """Indices of the rows a row-perforation scheme actually fetches."""
    if step < 2:
        raise ReconstructionError("row perforation requires step >= 2")
    phase = phase % step
    return np.arange(phase, height, step)


def reconstruct_rows(
    image: np.ndarray, step: int, technique: str = NEAREST_NEIGHBOR, phase: int = 0
) -> np.ndarray:
    """Reconstruct an image from every ``step``-th row.

    The semantics match the code generated by the reconstruction pass:
    nearest-neighbour copies the closest fetched row (ties resolved towards
    the next row, as the integer arithmetic in the kernel does); linear
    interpolation blends the two enclosing fetched rows and falls back to
    nearest-neighbour past the last fetched row.
    """
    _check_technique(technique)
    array = _check_image(image)
    height = array.shape[0]
    loaded = loaded_row_indices(height, step, phase)
    if loaded.size == 0:
        raise ReconstructionError("no rows are loaded; cannot reconstruct")

    rows = np.arange(height)
    offset = rows - loaded[0]
    if technique == NEAREST_NEIGHBOR:
        nearest = (offset + step // 2) // step
        nearest = np.clip(nearest, 0, loaded.size - 1)
        return array[loaded[nearest], :]

    lo = np.clip(offset // step, 0, loaded.size - 1)
    hi = np.clip(lo + 1, 0, loaded.size - 1)
    frac = (offset - lo * step) / float(step)
    frac = np.clip(frac, 0.0, 1.0)
    # Past the last fetched row ``hi == lo`` and the blend degenerates to NN.
    result = (1.0 - frac)[:, None] * array[loaded[lo], :] + frac[:, None] * array[
        loaded[hi], :
    ]
    # Fetched rows must be passed through exactly.
    result[loaded, :] = array[loaded, :]
    return result


def reconstruct_columns(
    image: np.ndarray, step: int, technique: str = NEAREST_NEIGHBOR, phase: int = 0
) -> np.ndarray:
    """Column analogue of :func:`reconstruct_rows`."""
    return reconstruct_rows(np.asarray(image).T, step, technique, phase).T


def reconstruct_mask(
    image: np.ndarray, mask: np.ndarray, technique: str = NEAREST_NEIGHBOR
) -> np.ndarray:
    """Reconstruct an image from an arbitrary boolean mask of fetched pixels.

    Used by the random perforation scheme.  Linear interpolation is not
    defined on scattered samples, so it degrades to nearest-neighbour (the
    same fallback the paper applies whenever both neighbours are missing).
    """
    _check_technique(technique)
    array = _check_image(image)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != array.shape:
        raise ReconstructionError(
            f"mask shape {mask.shape} does not match image shape {array.shape}"
        )
    if not mask.any():
        raise ReconstructionError("mask fetches no pixels; cannot reconstruct")
    if mask.all():
        return array.copy()
    try:
        from scipy import ndimage
    except ImportError as exc:  # pragma: no cover - scipy is an install requirement
        raise ReconstructionError("scipy is required for mask reconstruction") from exc
    _, (iy, ix) = ndimage.distance_transform_edt(~mask, return_indices=True)
    return array[iy, ix]


def perforate(image: np.ndarray, mask: np.ndarray, fill_value: float = 0.0) -> np.ndarray:
    """Return the perforated image: fetched pixels kept, skipped pixels filled.

    This is the intermediate artefact of Figure 2b of the paper; the
    experiments use it for illustration and for validating reconstruction.
    """
    array = _check_image(image)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != array.shape:
        raise ReconstructionError(
            f"mask shape {mask.shape} does not match image shape {array.shape}"
        )
    result = np.full_like(array, fill_value)
    result[mask] = array[mask]
    return result


# ---------------------------------------------------------------------------
# Input samplers
# ---------------------------------------------------------------------------
def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class InputSampler:
    """An (exact or approximate) view of a kernel's 2D input buffer.

    ``read_offset(dx, dy)`` returns an array of the input shape whose entry
    at output pixel (y, x) is the value that pixel reads at stencil offset
    (dx, dy).  Reads outside the image are clamped to the border, matching
    the ``clamp``-based border handling of the benchmark kernels.

    A sampler snapshots its image at construction (an edge-padded copy) and
    builds each plane once, on first use: a reconstructed plane per offset
    along its perforated axis, or the padded copy itself.  ``read_offset``
    and :meth:`view` serve read-only slices of them; copy one before writing.
    Planes live and die with the sampler, which one thread builds and reads.
    """

    def __init__(self, image: np.ndarray) -> None:
        self._snapshot(image, 0)

    def _snapshot(self, image: np.ndarray, pad: int) -> None:
        """Keep a read-only copy of ``image`` edge-padded by ``pad``; drop old planes."""
        array = _check_image(image)
        self.height, self.width = array.shape
        self._pad = pad
        self._padded = _frozen(np.pad(array, pad, mode="edge"))
        self._planes: dict[int, np.ndarray] = {}

    @property
    def image(self) -> np.ndarray:
        """The (read-only) snapshot of the input image."""
        pad = self._pad
        return self._padded[pad : pad + self.height, pad : pad + self.width]

    def read_offset(self, dx: int, dy: int) -> np.ndarray:
        """Values read at offset (dx, dy) by every output pixel."""
        raise NotImplementedError

    def view(self) -> np.ndarray:
        """The image this sampler effectively serves at offset (0, 0).

        Subclasses whose centre reads are approximated override this; the
        default (exact centre reads, e.g. the accurate and stencil
        samplers) is the original image.
        """
        return self.image

    def reads_per_pixel_are_exact(self) -> bool:
        """Whether this sampler returns exact input values (no approximation)."""
        return False


class AccurateSampler(InputSampler):
    """The exact input view (no perforation)."""

    def read_offset(self, dx: int, dy: int) -> np.ndarray:
        if (reach := max(abs(dx), abs(dy))) > self._pad:
            self._snapshot(self.image, reach)
        y0, x0 = self._pad + dy, self._pad + dx
        return self._padded[y0 : y0 + self.height, x0 : x0 + self.width]

    def reads_per_pixel_are_exact(self) -> bool:
        return True


class ReconstructedImageSampler(InputSampler):
    """Sampler backed by a globally reconstructed image (random scheme).

    For schemes whose loaded set repeats identically in every work group and
    whose reconstruction never reaches past a tile, a single global
    reconstruction of the image is an exact model.  The random scheme
    qualifies; row/column schemes do *not* (their reconstruction clamps to
    the tile at work-group boundaries) and use the tile samplers below.
    """

    def __init__(self, image: np.ndarray, reconstructed: np.ndarray) -> None:
        super().__init__(image)
        self._exact = AccurateSampler(reconstructed)
        if self.reconstructed.shape != self.image.shape:
            raise ReconstructionError(
                "reconstructed image shape does not match the input shape"
            )

    @property
    def reconstructed(self) -> np.ndarray:
        """The (read-only) snapshot of the reconstructed image."""
        return self._exact.image

    def read_offset(self, dx: int, dy: int) -> np.ndarray:
        return self._exact.read_offset(dx, dy)

    def view(self) -> np.ndarray:
        return self.reconstructed


class RowTileSampler(InputSampler):
    """Sampler reproducing the *per-tile* row perforation scheme exactly.

    Each work group stages its tile (``tile_y + 2 * halo`` rows, vertically
    clamped to the image at fetch time) in local memory, fetching only every
    ``step``-th tile row; the reconstruction then fills the skipped tile
    rows from fetched rows *of the same tile*.  Two boundary effects follow
    that a global row reconstruction cannot express:

    * at the image border, the clamped fetch duplicates the border row into
      the halo slot, so halo reads there are exact rather than
      reconstructed;
    * at the bottom of a tile, reconstruction clamps to the last row fetched
      *by that tile* instead of borrowing the nearer row of the next tile.

    This sampler matches the compiled kernel bit for bit, which is what the
    integration tests (and the cross-backend conformance suite) pin down.
    """

    def __init__(
        self,
        image: np.ndarray,
        step: int,
        tile_y: int,
        halo: int = 0,
        technique: str = NEAREST_NEIGHBOR,
    ) -> None:
        # Padding by the halo covers every |dx| the kernel reads.
        self._snapshot(image, halo)
        _check_technique(technique)
        if step < 2:
            raise ReconstructionError("row perforation requires step >= 2")
        if tile_y <= 0:
            raise SchemeError("tile dimensions must be positive")
        self.step = step
        self.tile_y = tile_y
        self.halo = halo
        self.technique = technique
        self.tile_h = tile_y + 2 * halo
        #: Last tile row the perforated prefetch loop fetches.
        self.last_loaded = ((self.tile_h - 1) // step) * step

    def _fetched_global_rows(self, ty: np.ndarray, group_row0: np.ndarray) -> np.ndarray:
        """Global rows held by tile slots ``ty`` (clamped at fetch time)."""
        return np.clip(group_row0 + ty - self.halo, 0, self.height - 1)

    def _row_view(self, dy: int) -> np.ndarray:
        """Rows (column-padded) served for vertical stencil offset ``dy``, one per output row."""
        image = self._padded[self._pad : self._pad + self.height]
        rows = np.arange(self.height)
        group_row0 = (rows // self.tile_y) * self.tile_y
        # Tile row each read lands on; always within the staged tile because
        # |dy| <= halo (the kernel's clamp-to-tile is a no-op then).
        ty = rows % self.tile_y + self.halo + dy
        loaded = (ty % self.step) == 0
        step = self.step
        if self.technique == NEAREST_NEIGHBOR:
            src = np.minimum(((ty + step // 2) // step) * step, self.last_loaded)
            src_rows = np.where(loaded, ty, src)
            return image[self._fetched_global_rows(src_rows, group_row0), :]
        lo = (ty // step) * step
        hi = lo + step
        lo_rows = image[self._fetched_global_rows(lo, group_row0), :]
        hi_rows = image[
            self._fetched_global_rows(np.minimum(hi, self.last_loaded), group_row0), :
        ]
        # mix(lo, hi, t) exactly as the generated kernel computes it; past the
        # last fetched tile row the blend degenerates to nearest-neighbour.
        frac = (ty - lo).astype(np.float64) / float(step)
        blended = lo_rows + (hi_rows - lo_rows) * frac[:, None]
        result = np.where((hi <= self.last_loaded)[:, None], blended, lo_rows)
        return np.where(
            loaded[:, None],
            image[self._fetched_global_rows(ty, group_row0), :],
            result,
        )

    def read_offset(self, dx: int, dy: int) -> np.ndarray:
        if abs(dx) > self._pad:
            self._snapshot(self.image, abs(dx))
        plane = self._planes.get(dy)
        if plane is None:
            plane = self._planes[dy] = _frozen(self._row_view(dy))
        x0 = self._pad + dx
        return plane[:, x0 : x0 + self.width]

    def view(self) -> np.ndarray:
        return self.read_offset(0, 0)


class ColumnTileSampler(InputSampler):
    """Column analogue of :class:`RowTileSampler` (transposed delegation)."""

    def __init__(
        self,
        image: np.ndarray,
        step: int,
        tile_x: int,
        halo: int = 0,
        technique: str = NEAREST_NEIGHBOR,
    ) -> None:
        self._rows = RowTileSampler(
            np.asarray(image).T, step, tile_x, halo=halo, technique=technique
        )
        self.height, self.width = self._rows.width, self._rows.height

    @property
    def image(self) -> np.ndarray:
        return self._rows.image.T

    def read_offset(self, dx: int, dy: int) -> np.ndarray:
        return self._rows.read_offset(dy, dx).T

    def view(self) -> np.ndarray:
        return self.read_offset(0, 0)


def _tile_clamped(size: int, tile: int, offset: int) -> np.ndarray:
    """Index each of ``size`` pixels reads at ``offset``, clamped into its tile."""
    index = np.arange(size)
    start = (index // tile) * tile
    return np.clip(index + offset, start, np.minimum(start + tile - 1, size - 1))


class StencilTileSampler(InputSampler):
    """Sampler reproducing the stencil perforation scheme.

    Each work group fetches only its core tile; reads that fall into the
    halo are served by the nearest fetched element of the *same* work
    group's core (nearest-neighbour reconstruction).  Equivalently: the
    read coordinates are clamped into the reading pixel's tile.
    """

    def __init__(self, image: np.ndarray, tile_x: int, tile_y: int) -> None:
        super().__init__(image)
        if tile_x <= 0 or tile_y <= 0:
            raise SchemeError("tile dimensions must be positive")
        self.tile_x = tile_x
        self.tile_y = tile_y

    def read_offset(self, dx: int, dy: int) -> np.ndarray:
        columns = self._planes.get(dx)
        if columns is None:
            columns = self._planes[dx] = self.image[:, _tile_clamped(self.width, self.tile_x, dx)]
        return _frozen(columns[_tile_clamped(self.height, self.tile_y, dy)])


def sampler_key(
    scheme: PerforationScheme,
    technique: str = NEAREST_NEIGHBOR,
    tile_x: int = 16,
    tile_y: int = 16,
) -> tuple:
    """The parameters :func:`make_sampler` reads, apart from the image and halo.

    Two calls with equal keys (and equal image and halo) build samplers that
    serve identical planes: a row scheme depends on the work group only
    through the tile height, a column scheme only through the tile width,
    and the stencil scheme, which reconstructs by nearest neighbour alone,
    not on the technique.  The key is hashable (schemes are frozen
    dataclasses).
    """
    _check_technique(technique)
    kind = scheme.kind
    if kind == KIND_NONE:
        return (kind,)
    if kind == KIND_ROWS:
        return (kind, scheme.step, tile_y, technique)  # type: ignore[attr-defined]
    if kind == KIND_COLUMNS:
        return (kind, scheme.step, tile_x, technique)  # type: ignore[attr-defined]
    if kind == KIND_STENCIL:
        return (kind, tile_x, tile_y)
    if kind == KIND_RANDOM:
        return (kind, scheme, tile_x, tile_y, technique)
    raise SchemeError(f"unknown scheme kind {kind!r}")


def make_sampler(
    image: np.ndarray,
    scheme: PerforationScheme,
    technique: str = NEAREST_NEIGHBOR,
    tile_x: int = 16,
    tile_y: int = 16,
    halo: int = 0,
) -> InputSampler:
    """Build the approximate input view for ``scheme`` + ``technique``.

    ``tile_x``/``tile_y`` are the work-group dimensions, ``halo`` the
    stencil halo of the kernel (0 for 1x1 kernels such as Inversion).  The
    sampler is built from the fields of :func:`sampler_key` and ``halo``
    only, so that key cannot omit a parameter the sampler reads.
    """
    key = sampler_key(scheme, technique, tile_x, tile_y)
    kind = key[0]
    if kind == KIND_NONE:
        return AccurateSampler(image)
    if kind == KIND_ROWS:
        _, step, tile, technique = key
        return RowTileSampler(image, step, tile, halo, technique)
    if kind == KIND_COLUMNS:
        _, step, tile, technique = key
        return ColumnTileSampler(image, step, tile, halo, technique)
    if kind == KIND_STENCIL:
        if halo == 0:
            raise SchemeError(
                "the stencil scheme requires a kernel with a halo (filter size > 1x1)"
            )
        _, tile_x, tile_y = key
        return StencilTileSampler(image, tile_x, tile_y)
    _, scheme, tile_x, tile_y, technique = key
    array = _check_image(image)
    tile_mask = scheme.loaded_mask(tile_y + 2 * halo, tile_x + 2 * halo, halo)
    reps_y = int(np.ceil(array.shape[0] / tile_mask.shape[0]))
    reps_x = int(np.ceil(array.shape[1] / tile_mask.shape[1]))
    full_mask = np.tile(tile_mask, (reps_y, reps_x))[: array.shape[0], : array.shape[1]]
    reconstructed = reconstruct_mask(array, full_mask, technique)
    return ReconstructedImageSampler(array, reconstructed)


@dataclass(frozen=True)
class ApproximateInput:
    """Bundle of a sampler plus the global reconstructed view (when available).

    ``view`` is the image the perforated kernel effectively sees: for row,
    column and random schemes it is the reconstructed image, for the
    stencil scheme it equals the original (only halo reads are
    approximated), and for the accurate scheme it is the original image.
    """

    sampler: InputSampler
    view: np.ndarray


def approximate_input(
    image: np.ndarray,
    scheme: PerforationScheme,
    technique: str = NEAREST_NEIGHBOR,
    tile_x: int = 16,
    tile_y: int = 16,
    halo: int = 0,
) -> ApproximateInput:
    """Convenience wrapper returning both the sampler and its global view."""
    sampler = make_sampler(image, scheme, technique, tile_x, tile_y, halo)
    return ApproximateInput(sampler=sampler, view=sampler.view())
