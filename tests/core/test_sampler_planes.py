"""The samplers' planes against the per-offset formulas they replace.

Every sampler builds each plane once and serves stencil offsets as slices of
it.  The oracle below keeps the per-offset formulas (a row view rebuilt for
every read, tile-clamped coordinates, ``np.ix_`` gathers) as the reference:
the planes must reproduce them byte for byte, in any read order, including
offsets past the halo and images the tile does not divide.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.stencils import convolve
from repro.core import (
    ACCURATE,
    AccurateSampler,
    ColumnTileSampler,
    LINEAR_INTERPOLATION,
    NEAREST_NEIGHBOR,
    ReconstructedImageSampler,
    RowTileSampler,
    StencilTileSampler,
    approximate_input,
    make_sampler,
)
from repro.core.schemes import (
    ColumnPerforation,
    RandomPerforation,
    RowPerforation,
    StencilPerforation,
)
from repro.data import generate_image

KINDS = ("accurate", "random", "rows", "columns", "stencil")


# ---------------------------------------------------------------------------
# Oracle: one read, computed from scratch
# ---------------------------------------------------------------------------
def _clamped(size, offset):
    return np.clip(np.arange(size) + offset, 0, size - 1)


def _shifted(image, dx, dy):
    height, width = image.shape
    return image[np.ix_(_clamped(height, dy), _clamped(width, dx))]


def _row_view(image, step, tile_y, halo, technique, dy):
    height = image.shape[0]
    last_loaded = ((tile_y + 2 * halo - 1) // step) * step
    rows = np.arange(height)
    group_row0 = (rows // tile_y) * tile_y

    def fetched(ty):
        return np.clip(group_row0 + ty - halo, 0, height - 1)

    ty = rows % tile_y + halo + dy
    loaded = (ty % step) == 0
    if technique == NEAREST_NEIGHBOR:
        src = np.minimum(((ty + step // 2) // step) * step, last_loaded)
        return image[fetched(np.where(loaded, ty, src)), :]
    lo = (ty // step) * step
    hi = lo + step
    lo_rows = image[fetched(lo), :]
    hi_rows = image[fetched(np.minimum(hi, last_loaded)), :]
    frac = (ty - lo).astype(np.float64) / float(step)
    blended = lo_rows + (hi_rows - lo_rows) * frac[:, None]
    result = np.where((hi <= last_loaded)[:, None], blended, lo_rows)
    return np.where(loaded[:, None], image[fetched(ty), :], result)


def _row_read(image, step, tile_y, halo, technique, dx, dy):
    view = _row_view(image, step, tile_y, halo, technique, dy)
    return view[:, _clamped(image.shape[1], dx)]


def _stencil_read(image, tile_x, tile_y, dx, dy):
    height, width = image.shape
    ys, xs = np.arange(height), np.arange(width)
    y0 = (ys // tile_y) * tile_y
    x0 = (xs // tile_x) * tile_x
    yy = np.clip(ys + dy, y0, np.minimum(y0 + tile_y - 1, height - 1))
    xx = np.clip(xs + dx, x0, np.minimum(x0 + tile_x - 1, width - 1))
    return image[np.ix_(yy, xx)]


def _oracle(kind, image, reconstructed, step, tile_x, tile_y, halo, technique):
    if kind == "accurate":
        return lambda dx, dy: _shifted(image, dx, dy)
    if kind == "random":
        return lambda dx, dy: _shifted(reconstructed, dx, dy)
    if kind == "rows":
        return lambda dx, dy: _row_read(image, step, tile_y, halo, technique, dx, dy)
    if kind == "columns":
        return lambda dx, dy: _row_read(image.T, step, tile_x, halo, technique, dy, dx).T
    return lambda dx, dy: _stencil_read(image, tile_x, tile_y, dx, dy)


def _sampler(kind, image, reconstructed, step, tile_x, tile_y, halo, technique):
    if kind == "accurate":
        return AccurateSampler(image)
    if kind == "random":
        return ReconstructedImageSampler(image, reconstructed)
    if kind == "rows":
        return RowTileSampler(image, step, tile_y, halo, technique)
    if kind == "columns":
        return ColumnTileSampler(image, step, tile_x, halo, technique)
    return StencilTileSampler(image, tile_x, tile_y)


@st.composite
def sampler_cases(draw):
    height = draw(st.integers(1, 40))
    width = draw(st.integers(1, 40))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    image = draw(hnp.arrays(np.float64, (height, width), elements=values))
    reconstructed = draw(hnp.arrays(np.float64, (height, width), elements=values))
    halo = draw(st.integers(0, 2))
    params = dict(
        step=draw(st.sampled_from([2, 3, 4, 8])),
        tile_x=draw(st.integers(2, 32)),
        tile_y=draw(st.integers(2, 32)),
        halo=halo,
        technique=draw(st.sampled_from([NEAREST_NEIGHBOR, LINEAR_INTERPOLATION])),
    )
    reach = range(-halo - 1, halo + 2)
    grid = [(dx, dy) for dy in reach for dx in reach]
    offsets = draw(st.permutations(grid)) + draw(st.lists(st.sampled_from(grid), max_size=8))
    return image, reconstructed, params, offsets


@pytest.mark.parametrize("kind", KINDS)
@given(case=sampler_cases())
@settings(max_examples=60, deadline=None)
def test_planes_match_per_offset_formulas(kind, case):
    image, reconstructed, params, offsets = case
    sampler = _sampler(kind, image, reconstructed, **params)
    oracle = _oracle(kind, image, reconstructed, **params)
    for dx, dy in offsets:
        got, expected = sampler.read_offset(dx, dy), oracle(dx, dy)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), (dx, dy)
        assert not got.flags.writeable


# ---------------------------------------------------------------------------
# Reuse: one plane per offset along the perforated axis
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("sampler_class", [RowTileSampler, ColumnTileSampler])
@pytest.mark.parametrize("technique", [NEAREST_NEIGHBOR, LINEAR_INTERPOLATION])
def test_five_by_five_convolve_builds_five_planes(monkeypatch, sampler_class, technique):
    built = []
    row_view = RowTileSampler._row_view

    def spy(self, dy):
        built.append(dy)
        return row_view(self, dy)

    monkeypatch.setattr(RowTileSampler, "_row_view", spy)
    image = generate_image("natural", size=32, seed=3)
    convolve(sampler_class(image, 2, 8, halo=2, technique=technique), np.ones((5, 5)))
    assert sorted(built) == [-2, -1, 0, 1, 2]


# ---------------------------------------------------------------------------
# One version of the image, served read-only
# ---------------------------------------------------------------------------
SCHEMES = {
    "accurate": ACCURATE,
    "random": RandomPerforation(fraction=0.5, seed=4),
    "rows": RowPerforation(step=2),
    "columns": ColumnPerforation(step=2),
    "stencil": StencilPerforation(),
}


def _make(kind, image):
    return make_sampler(image, SCHEMES[kind], NEAREST_NEIGHBOR, tile_x=8, tile_y=8, halo=1)


@pytest.mark.parametrize("kind", KINDS)
def test_reads_see_the_image_as_it_was_at_construction(kind):
    image = generate_image("natural", size=24, seed=11)
    original = image.copy()
    sampler = _make(kind, image)
    sampler.read_offset(0, 0)
    image[:] = -1.0  # the caller reuses its buffer between two reads
    fresh = _make(kind, original)
    for dx, dy in [(-1, -1), (0, 0), (1, 0), (0, 1), (2, -2)]:
        np.testing.assert_array_equal(sampler.read_offset(dx, dy), fresh.read_offset(dx, dy))
    np.testing.assert_array_equal(sampler.view(), fresh.view())


@pytest.mark.parametrize("kind", KINDS)
def test_served_arrays_are_read_only(kind):
    image = generate_image("natural", size=16, seed=12)
    sampler = _make(kind, image)
    bundle = approximate_input(image, SCHEMES[kind], NEAREST_NEIGHBOR, 8, 8, halo=1)
    served = (sampler.read_offset(1, 0), sampler.read_offset(0, -1), sampler.view(), bundle.view)
    for array in served:
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
