"""Tests for reconstruction techniques and input samplers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    ACCURATE,
    AccurateSampler,
    LINEAR_INTERPOLATION,
    NEAREST_NEIGHBOR,
    ROWS1,
    ROWS2,
    ReconstructionError,
    RowTileSampler,
    STENCIL1,
    SchemeError,
    StencilTileSampler,
    approximate_input,
    loaded_row_indices,
    make_sampler,
    perforate,
    reconstruct_columns,
    reconstruct_rows,
)


def images(min_side=4, max_side=24):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_value=min_side, max_value=max_side),
            st.integers(min_value=min_side, max_value=max_side),
        ),
        elements=st.floats(min_value=0.0, max_value=255.0, allow_nan=False),
    )


class TestLoadedRows:
    def test_basic(self):
        np.testing.assert_array_equal(loaded_row_indices(10, 2), [0, 2, 4, 6, 8])
        np.testing.assert_array_equal(loaded_row_indices(10, 4, phase=1), [1, 5, 9])

    def test_invalid_step(self):
        with pytest.raises(ReconstructionError):
            loaded_row_indices(10, 1)


class TestReconstructRows:
    def test_loaded_rows_pass_through_exactly(self, natural_image_64):
        for technique in (NEAREST_NEIGHBOR, LINEAR_INTERPOLATION):
            result = reconstruct_rows(natural_image_64, 2, technique)
            np.testing.assert_array_equal(result[::2], natural_image_64[::2])

    def test_nearest_neighbor_copies_a_loaded_row(self, natural_image_64):
        result = reconstruct_rows(natural_image_64, 2, NEAREST_NEIGHBOR)
        for row in range(1, 63, 2):
            source_below = natural_image_64[row - 1]
            source_above = natural_image_64[row + 1]
            matches = np.allclose(result[row], source_below) or np.allclose(
                result[row], source_above
            )
            assert matches

    def test_linear_interpolation_blends_neighbours(self):
        image = np.zeros((6, 4))
        image[2, :] = 0.0
        image[4, :] = 10.0
        result = reconstruct_rows(image, 2, LINEAR_INTERPOLATION)
        np.testing.assert_allclose(result[3, :], 5.0)

    def test_linear_interpolation_reduces_error_on_smooth_ramp(self):
        ramp = np.tile(np.arange(64, dtype=np.float64)[:, None], (1, 8))
        nn = reconstruct_rows(ramp, 2, NEAREST_NEIGHBOR)
        li = reconstruct_rows(ramp, 2, LINEAR_INTERPOLATION)
        assert np.abs(li - ramp).mean() < np.abs(nn - ramp).mean()

    def test_perfect_reconstruction_of_constant_image(self):
        constant = np.full((16, 16), 7.0)
        for step in (2, 4):
            for technique in (NEAREST_NEIGHBOR, LINEAR_INTERPOLATION):
                np.testing.assert_allclose(
                    reconstruct_rows(constant, step, technique), constant
                )

    def test_more_aggressive_perforation_is_worse(self, natural_image_64):
        err2 = np.abs(reconstruct_rows(natural_image_64, 2) - natural_image_64).mean()
        err4 = np.abs(reconstruct_rows(natural_image_64, 4) - natural_image_64).mean()
        assert err4 >= err2

    def test_invalid_technique(self):
        with pytest.raises(ReconstructionError):
            reconstruct_rows(np.zeros((4, 4)), 2, "bicubic")

    def test_invalid_image(self):
        with pytest.raises(ReconstructionError):
            reconstruct_rows(np.zeros((4,)), 2)

    @given(image=images(), step=st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_values_stay_within_input_range(self, image, step):
        """Reconstruction never extrapolates outside the input value range."""
        for technique in (NEAREST_NEIGHBOR, LINEAR_INTERPOLATION):
            result = reconstruct_rows(image, step, technique)
            assert result.min() >= image.min() - 1e-9
            assert result.max() <= image.max() + 1e-9

    @given(image=images(min_side=6), step=st.sampled_from([2, 4]))
    @settings(max_examples=30, deadline=None)
    def test_columns_is_transpose_of_rows(self, image, step):
        via_columns = reconstruct_columns(image, step, NEAREST_NEIGHBOR)
        via_rows = reconstruct_rows(image.T, step, NEAREST_NEIGHBOR).T
        np.testing.assert_allclose(via_columns, via_rows)


class TestPerforate:
    def test_perforated_image_keeps_only_loaded_values(self, natural_image_64):
        mask = ROWS1.loaded_mask(64, 64)
        perforated = perforate(natural_image_64, mask, fill_value=0.0)
        np.testing.assert_array_equal(perforated[::2], natural_image_64[::2])
        assert (perforated[1::2] == 0.0).all()


class TestSamplers:
    def test_accurate_sampler_shifts_and_clamps(self, natural_image_64):
        sampler = AccurateSampler(natural_image_64)
        centre = sampler.read_offset(0, 0)
        np.testing.assert_array_equal(centre, natural_image_64)
        right = sampler.read_offset(1, 0)
        np.testing.assert_array_equal(right[:, :-1], natural_image_64[:, 1:])
        np.testing.assert_array_equal(right[:, -1], natural_image_64[:, -1])
        assert sampler.reads_per_pixel_are_exact()

    def test_row_sampler_matches_reconstructed_image_in_tile_interior(
        self, natural_image_64
    ):
        sampler = make_sampler(
            natural_image_64, ROWS1, NEAREST_NEIGHBOR, tile_y=16, halo=0
        )
        assert isinstance(sampler, RowTileSampler)
        expected = reconstruct_rows(natural_image_64, 2, NEAREST_NEIGHBOR, phase=0)
        interior = [r for r in range(64) if r % 16 != 15]
        np.testing.assert_array_equal(
            sampler.read_offset(0, 0)[interior], expected[interior]
        )
        # The bottom row of each tile reconstructs from the last row fetched
        # by the *own* tile (the row above), not the next tile's nearer row.
        boundary = [r for r in range(64) if r % 16 == 15]
        np.testing.assert_array_equal(
            sampler.read_offset(0, 0)[boundary], natural_image_64[[r - 1 for r in boundary]]
        )

    def test_row_sampler_phase_accounts_for_halo(self, natural_image_64):
        # With a one-row halo the tile fetch starts one row above the tile,
        # which shifts the loaded rows to the odd global rows — for the tile
        # interior this coincides with a phase-1 global reconstruction.
        sampler = make_sampler(
            natural_image_64, ROWS1, NEAREST_NEIGHBOR, tile_y=16, halo=1
        )
        expected = reconstruct_rows(natural_image_64, 2, NEAREST_NEIGHBOR, phase=1)
        np.testing.assert_array_equal(sampler.read_offset(0, 0), expected)

    def test_row_sampler_halo_reads_exact_at_image_border(self, natural_image_64):
        """The clamped halo fetch duplicates the border row into the halo
        slot, so the up-read at row 0 serves the original border row."""
        sampler = make_sampler(
            natural_image_64, ROWS1, NEAREST_NEIGHBOR, tile_y=16, halo=1
        )
        up = sampler.read_offset(0, -1)
        np.testing.assert_array_equal(up[0], natural_image_64[0])

    def test_column_sampler_transposes_row_semantics(self, natural_image_64):
        from repro.core.schemes import ColumnPerforation

        sampler = make_sampler(
            natural_image_64, ColumnPerforation(step=2), NEAREST_NEIGHBOR,
            tile_x=16, halo=0,
        )
        row_sampler = make_sampler(
            natural_image_64.T, ROWS1, NEAREST_NEIGHBOR, tile_y=16, halo=0
        )
        np.testing.assert_array_equal(
            sampler.read_offset(1, 0), row_sampler.read_offset(0, 1).T
        )

    def test_stencil_sampler_center_reads_are_exact(self, natural_image_64):
        sampler = make_sampler(natural_image_64, STENCIL1, tile_x=16, tile_y=16, halo=1)
        assert isinstance(sampler, StencilTileSampler)
        np.testing.assert_array_equal(sampler.read_offset(0, 0), natural_image_64)

    def test_stencil_sampler_clamps_reads_to_tile(self, natural_image_64):
        sampler = StencilTileSampler(natural_image_64, tile_x=16, tile_y=16)
        right = sampler.read_offset(1, 0)
        # Inside a tile the read is exact...
        assert right[0, 0] == natural_image_64[0, 1]
        # ...but at the tile's right edge the read is clamped to the tile.
        assert right[0, 15] == natural_image_64[0, 15]
        assert right[0, 31] == natural_image_64[0, 31]

    def test_stencil_scheme_requires_halo(self, natural_image_64):
        with pytest.raises(SchemeError):
            make_sampler(natural_image_64, STENCIL1, halo=0)

    def test_accurate_scheme_gives_accurate_sampler(self, natural_image_64):
        sampler = make_sampler(natural_image_64, ACCURATE)
        assert isinstance(sampler, AccurateSampler)

    def test_approximate_input_bundle(self, natural_image_64):
        bundle = approximate_input(natural_image_64, ROWS1, NEAREST_NEIGHBOR, halo=0)
        assert bundle.view.shape == natural_image_64.shape
        accurate_bundle = approximate_input(natural_image_64, ACCURATE)
        np.testing.assert_array_equal(accurate_bundle.view, natural_image_64)

    @given(image=images(min_side=8), dx=st.integers(-2, 2), dy=st.integers(-2, 2))
    @settings(max_examples=40, deadline=None)
    def test_row_sampler_error_bounded_by_row_distance(self, image, dx, dy):
        """A perforated read never invents values outside the image range."""
        sampler = make_sampler(image, ROWS2, NEAREST_NEIGHBOR, halo=0)
        values = sampler.read_offset(dx, dy)
        assert values.min() >= image.min() - 1e-9
        assert values.max() <= image.max() + 1e-9
