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

A row or column sampler builds one C-contiguous plane per offset along its
perforated axis with one gather of the fetched line each output line reads;
linear interpolation then blends only the lines between two fetched ones,
so fetched lines stay plain copies.  The stencil sampler gathers one
tile-clamped column plane per horizontal offset and serves each read as a
row gather of it.  The planes equal the per-offset formulas byte for byte
(``tests/core/test_sampler_planes.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReconstructionError, SchemeError
from .schemes import (
    KIND_COLUMNS,
    KIND_NONE,
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


def _clamp(index: np.ndarray, low, high) -> np.ndarray:
    """``np.clip`` of an index array, without np.clip's per-call wrapper cost."""
    return np.minimum(np.maximum(index, low), high)


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
        height, width = self.height, self.width = array.shape
        self._pad = pad
        # ``np.pad(array, pad, mode="edge")`` by slice assignment, which costs
        # less than np.pad's wrapper at the autotuner's screening sizes.
        padded = np.empty((height + 2 * pad, width + 2 * pad))
        rows = padded[pad : pad + height]
        rows[:, pad : pad + width] = array
        if pad:
            rows[:, :pad] = array[:, :1]
            rows[:, pad + width :] = array[:, -1:]
            padded[:pad] = rows[0]
            padded[pad + height :] = rows[-1]
        self._padded = _frozen(padded)
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


class _LineTileSampler(InputSampler):
    """Per-tile perforation of whole lines (rows or columns) of the input.

    Each work group stages its tile (``tile + 2 * halo`` lines along the
    perforated :attr:`axis`, clamped to the image at fetch time) in local
    memory, fetching only every ``step``-th tile line; the reconstruction
    then fills the skipped tile lines from fetched lines *of the same tile*.
    Two boundary effects follow that a global reconstruction cannot express:

    * at the image border, the clamped fetch duplicates the border line into
      the halo slot, so halo reads there are exact rather than
      reconstructed;
    * at the end of a tile, reconstruction clamps to the last line fetched
      *by that tile* instead of borrowing the nearer line of the next tile.

    One plane per offset along the perforated axis holds a reconstructed
    line per output line, edge-padded along the other axis, C-contiguous
    for either axis.  The samplers match the compiled kernel bit for bit,
    which is what the integration tests (and the cross-backend conformance
    suite) pin down.
    """

    #: The perforated axis: 0 for rows, 1 for columns.
    axis: int

    def __init__(
        self,
        image: np.ndarray,
        step: int,
        tile: int,
        halo: int = 0,
        technique: str = NEAREST_NEIGHBOR,
    ) -> None:
        # Padding by the halo covers every offset the kernel reads across lines.
        self._snapshot(image, halo)
        _check_technique(technique)
        if step < 2:
            raise ReconstructionError("row perforation requires step >= 2")
        if tile <= 0:
            raise SchemeError("tile dimensions must be positive")
        self.step = step
        self.tile = tile
        self.halo = halo
        self.technique = technique
        #: Last tile line the perforated prefetch loop fetches.
        self.last_loaded = ((tile + 2 * halo - 1) // step) * step

    def _plane(self, offset: int) -> np.ndarray:
        """Lines served for stencil offset ``offset`` along the perforated axis."""
        axis, pad, step = self.axis, self._pad, self.step
        size = (self.height, self.width)[axis]
        # The snapshot without its padding along the perforated axis.
        image = self._padded[pad : pad + size] if axis == 0 else self._padded[:, pad : pad + size]
        lines = np.arange(size)
        group_start = (lines // self.tile) * self.tile

        def fetched(slot: np.ndarray) -> np.ndarray:
            """Image lines held by tile slots ``slot`` (clamped at fetch time)."""
            return _clamp(group_start + slot - self.halo, 0, size - 1)

        # Tile line each read lands on; always within the staged tile because
        # |offset| <= halo (the kernel's clamp-to-tile is a no-op then).
        slot = lines % self.tile + self.halo + offset
        if self.technique == NEAREST_NEIGHBOR:
            nearest = np.minimum(((slot + step // 2) // step) * step, self.last_loaded)
            return self._lines(image, fetched(np.where(slot % step == 0, slot, nearest)))
        # One gather of the lower fetched line serves fetched lines and lines
        # past the last fetched one (where the blend degenerates to
        # nearest-neighbour) as plain copies, which keeps signed zeros.
        lo = (slot // step) * step
        plane = self._lines(image, fetched(lo))
        between = np.flatnonzero((slot != lo) & (lo + step <= self.last_loaded))
        if between.size:
            # mix(lo, hi, t) exactly as the generated kernel computes it.
            frac = (slot[between] - lo[between]).astype(np.float64) / float(step)
            lo_lines = self._lines(plane, between)
            blend = self._lines(image, fetched(lo + step)[between])
            blend -= lo_lines
            blend *= frac[:, None] if axis == 0 else frac
            np.add(lo_lines, blend, out=blend)
            if axis == 0:
                plane[between] = blend
            else:
                plane[:, between] = blend
        return plane

    def _lines(self, array: np.ndarray, index: np.ndarray) -> np.ndarray:
        """A C-contiguous copy of ``array``'s lines ``index`` along the perforated axis."""
        # Indexing, not np.take, which is many times slower along axis 1 of a view.
        return array[index] if self.axis == 0 else array[:, index]

    def read_offset(self, dx: int, dy: int) -> np.ndarray:
        along, across = (dy, dx) if self.axis == 0 else (dx, dy)
        if abs(across) > self._pad:
            self._snapshot(self.image, abs(across))
        plane = self._planes.get(along)
        if plane is None:
            plane = self._planes[along] = _frozen(self._plane(along))
        start = self._pad + across
        if self.axis == 0:
            return plane[:, start : start + self.width]
        return plane[start : start + self.height]

    def view(self) -> np.ndarray:
        return self.read_offset(0, 0)


class RowTileSampler(_LineTileSampler):
    """Sampler reproducing the *per-tile* row perforation scheme exactly.

    ``tile_y`` is the work group's height; see :class:`_LineTileSampler`.
    """

    axis = 0

    def __init__(
        self,
        image: np.ndarray,
        step: int,
        tile_y: int,
        halo: int = 0,
        technique: str = NEAREST_NEIGHBOR,
    ) -> None:
        super().__init__(image, step, tile_y, halo, technique)


class ColumnTileSampler(_LineTileSampler):
    """Column analogue of :class:`RowTileSampler`; ``tile_x`` is the work group's width."""

    axis = 1

    def __init__(
        self,
        image: np.ndarray,
        step: int,
        tile_x: int,
        halo: int = 0,
        technique: str = NEAREST_NEIGHBOR,
    ) -> None:
        super().__init__(image, step, tile_x, halo, technique)


def _tile_clamped(size: int, tile: int, offset: int) -> np.ndarray:
    """Index each of ``size`` pixels reads at ``offset``, clamped into its tile."""
    index = np.arange(size)
    start = (index // tile) * tile
    return _clamp(index + offset, start, np.minimum(start + tile - 1, size - 1))


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
        self._rows: dict[int, np.ndarray] = {}

    def read_offset(self, dx: int, dy: int) -> np.ndarray:
        columns = self._planes.get(dx)
        if columns is None:
            columns = self._planes[dx] = self.image[:, _tile_clamped(self.width, self.tile_x, dx)]
        rows = self._rows.get(dy)
        if rows is None:
            rows = self._rows[dy] = _tile_clamped(self.height, self.tile_y, dy)
        return _frozen(columns[rows])


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
    if halo == 0:
        raise SchemeError("the stencil scheme requires a kernel with a halo (filter size > 1x1)")
    _, tile_x, tile_y = key
    return StencilTileSampler(image, tile_x, tile_y)


@dataclass(frozen=True)
class ApproximateInput:
    """Bundle of a sampler plus the global reconstructed view (when available).

    ``view`` is the image the perforated kernel effectively sees: for row
    and column schemes it is the reconstructed image, for the
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
