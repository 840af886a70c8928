"""The samplers' planes, and the arithmetic on them, against plain formulas.

Every sampler builds each plane once and serves stencil offsets as slices of
it.  The oracle below keeps the per-offset formulas (a row view rebuilt for
every read, tile-clamped coordinates, ``np.ix_`` gathers) as the reference:
the planes must reproduce them byte for byte, in any read order, including
offsets past the halo and images the tile does not divide.

The stencil arithmetic (``convolve``, the Sobel magnitude, the Hotspot step)
accumulates in place; plain expressions, one temporary per operation, are its
reference, compared byte for byte on images holding both signed zeros.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.hotspot import HotspotCoefficients, _simulation_step
from repro.apps.sobel import SOBEL3_GX, SOBEL3_GY, SOBEL5_GX, SOBEL5_GY, _gradient_magnitude
from repro.apps.stencils import convolve, convolve_masks
from repro.core import (
    ACCURATE,
    AccurateSampler,
    ColumnTileSampler,
    LINEAR_INTERPOLATION,
    NEAREST_NEIGHBOR,
    RowTileSampler,
    StencilTileSampler,
    approximate_input,
    make_sampler,
)
from repro.core.schemes import ColumnPerforation, RowPerforation, StencilPerforation
from repro.data import generate_image

KINDS = ("accurate", "rows", "columns", "stencil")


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


def _oracle(kind, image, step, tile_x, tile_y, halo, technique):
    if kind == "accurate":
        return lambda dx, dy: _shifted(image, dx, dy)
    if kind == "rows":
        return lambda dx, dy: _row_read(image, step, tile_y, halo, technique, dx, dy)
    if kind == "columns":
        return lambda dx, dy: _row_read(image.T, step, tile_x, halo, technique, dy, dx).T
    return lambda dx, dy: _stencil_read(image, tile_x, tile_y, dx, dy)


def _sampler(kind, image, step, tile_x, tile_y, halo, technique):
    if kind == "accurate":
        return AccurateSampler(image)
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
    return image, params, offsets


@pytest.mark.parametrize("kind", KINDS)
@given(case=sampler_cases())
@settings(max_examples=60, deadline=None)
def test_planes_match_per_offset_formulas(kind, case):
    image, params, offsets = case
    sampler = _sampler(kind, image, **params)
    oracle = _oracle(kind, image, **params)
    for dx, dy in offsets:
        got, expected = sampler.read_offset(dx, dy), oracle(dx, dy)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), (dx, dy)
        assert not got.flags.writeable


# ---------------------------------------------------------------------------
# Arithmetic on the planes: the plain expressions are the oracle
# ---------------------------------------------------------------------------
def _plain_convolve(sampler, weights):
    radius = weights.shape[0] // 2
    result = np.zeros((sampler.height, sampler.width), dtype=np.float64)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            weight = weights[dy + radius, dx + radius]
            if weight == 0.0:
                continue
            result += weight * sampler.read_offset(dx, dy)
    return result


def _plain_gradient_magnitude(sampler, gx_mask, gy_mask):
    gx = _plain_convolve(sampler, gx_mask)
    gy = _plain_convolve(sampler, gy_mask)
    return np.sqrt(gx * gx + gy * gy)


def _plain_simulation_step(temp_sampler, power_sampler, coefficients):
    center = temp_sampler.read_offset(0, 0)
    north = temp_sampler.read_offset(0, -1)
    south = temp_sampler.read_offset(0, 1)
    west = temp_sampler.read_offset(-1, 0)
    east = temp_sampler.read_offset(1, 0)
    power = power_sampler.read_offset(0, 0)
    delta = coefficients.step_div_cap * (
        power
        + (south + north - 2.0 * center) * coefficients.ry_1
        + (east + west - 2.0 * center) * coefficients.rx_1
        + (coefficients.ambient - center) * coefficients.rz_1
    )
    return center + delta


#: Pixel and weight values: both signed zeros, small integers (so sums
#: cancel to zero) and arbitrary finite floats.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def arithmetic_cases(draw):
    height = draw(st.integers(1, 24))
    width = draw(st.integers(1, 24))
    image = draw(hnp.arrays(np.float64, (height, width), elements=_VALUES))
    other = draw(hnp.arrays(np.float64, (height, width), elements=_VALUES))
    params = dict(
        step=draw(st.sampled_from([2, 3, 4])),
        tile_x=draw(st.integers(2, 16)),
        tile_y=draw(st.integers(2, 16)),
        halo=draw(st.integers(1, 2)),
        technique=draw(st.sampled_from([NEAREST_NEIGHBOR, LINEAR_INTERPOLATION])),
    )
    size = 2 * draw(st.integers(1, 2)) + 1
    masks = [draw(hnp.arrays(np.float64, (size, size), elements=_VALUES)) for _ in range(2)]
    return image, other, params, masks


def _same_bytes(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", KINDS)
@given(case=arithmetic_cases())
@settings(max_examples=40, deadline=None)
def test_convolve_sums_every_tap_in_the_plain_order(kind, case):
    image, other, params, (mask, second) = case
    sampler = _sampler(kind, image, **params)
    _same_bytes(convolve(sampler, mask), _plain_convolve(sampler, mask))
    for got, weights in zip(convolve_masks(sampler, [mask, second]), [mask, second]):
        _same_bytes(got, _plain_convolve(sampler, weights))


@pytest.mark.parametrize("kind", KINDS)
@given(case=arithmetic_cases())
@settings(max_examples=40, deadline=None)
def test_sobel_magnitude_matches_the_plain_expression(kind, case):
    image, other, params, (gx_mask, gy_mask) = case
    sampler = _sampler(kind, image, **params)
    pairs = [(gx_mask, gy_mask), (SOBEL3_GX, SOBEL3_GY), (SOBEL5_GX, SOBEL5_GY)]
    for gx, gy in pairs:
        got = _gradient_magnitude(sampler, gx, gy)
        _same_bytes(got, _plain_gradient_magnitude(sampler, gx, gy))


@pytest.mark.parametrize("kind", KINDS)
@given(
    case=arithmetic_cases(),
    constants=st.lists(_VALUES, min_size=5, max_size=5),
    accurate_power=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_hotspot_step_matches_the_plain_expression(kind, case, constants, accurate_power):
    temperature, power, params, _ = case
    height, width = temperature.shape
    grid_coefficients = HotspotCoefficients.for_grid(height, width)
    for coefficients in (HotspotCoefficients(*constants), grid_coefficients):
        temp_sampler = _sampler(kind, temperature, **params)
        power_sampler = (
            AccurateSampler(power)
            if accurate_power
            else _sampler(kind, power, **{**params, "halo": 0})
        )
        got = _simulation_step(temp_sampler, power_sampler, coefficients)
        _same_bytes(got, _plain_simulation_step(temp_sampler, power_sampler, coefficients))


# ---------------------------------------------------------------------------
# Reuse: one plane per offset along the perforated axis
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("sampler_class", [RowTileSampler, ColumnTileSampler])
@pytest.mark.parametrize("technique", [NEAREST_NEIGHBOR, LINEAR_INTERPOLATION])
def test_five_by_five_convolve_builds_five_planes(monkeypatch, sampler_class, technique):
    built = []
    build_plane = sampler_class._plane

    def spy(self, offset):
        built.append(offset)
        return build_plane(self, offset)

    monkeypatch.setattr(sampler_class, "_plane", spy)
    image = generate_image("natural", size=32, seed=3)
    convolve(sampler_class(image, 2, 8, halo=2, technique=technique), np.ones((5, 5)))
    assert sorted(built) == [-2, -1, 0, 1, 2]


# ---------------------------------------------------------------------------
# One version of the image, served read-only
# ---------------------------------------------------------------------------
SCHEMES = {
    "accurate": ACCURATE,
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
