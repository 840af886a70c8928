"""Tests for the perforation schemes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ACCURATE,
    COLS1,
    ColumnPerforation,
    ROWS1,
    ROWS2,
    RowPerforation,
    STENCIL1,
    SchemeError,
)


class TestAccurateScheme:
    def test_loads_everything(self):
        mask = ACCURATE.loaded_mask(18, 18, halo=1)
        assert mask.all()
        assert ACCURATE.loaded_fraction(18, 18, 1) == 1.0
        assert ACCURATE.kind == "none"
        assert not ACCURATE.requires_halo()

    def test_invalid_tile_rejected(self):
        with pytest.raises(SchemeError):
            ACCURATE.loaded_mask(0, 8)
        with pytest.raises(SchemeError):
            ACCURATE.loaded_mask(8, 8, halo=-1)
        with pytest.raises(SchemeError):
            ACCURATE.loaded_mask(8, 8, halo=4)


class TestRowPerforation:
    def test_rows1_loads_every_other_row(self):
        mask = ROWS1.loaded_mask(18, 18, halo=1)
        assert mask[0].all()
        assert not mask[1].any()
        assert mask[2].all()
        assert ROWS1.loaded_fraction(18, 18, 1) == pytest.approx(0.5)

    def test_rows2_loads_one_in_four(self):
        mask = ROWS2.loaded_mask(20, 18, halo=1)
        assert mask.sum() == 5 * 18
        assert ROWS2.step == 4

    def test_rows_loaded_fraction(self):
        assert ROWS1.rows_loaded_fraction(18, 1) == pytest.approx(0.5)
        assert ROWS2.rows_loaded_fraction(20, 1) == pytest.approx(0.25)

    def test_invalid_step(self):
        with pytest.raises(SchemeError):
            RowPerforation(step=1)

    def test_names(self):
        assert ROWS1.name == "rows1"
        assert ROWS2.name == "rows2"
        assert "rows" in ROWS1.describe()

    @given(step=st.integers(min_value=2, max_value=8), tile=st.sampled_from([8, 16, 18, 20, 32]))
    @settings(max_examples=40, deadline=None)
    def test_loaded_fraction_close_to_inverse_step(self, step, tile):
        scheme = RowPerforation(step=step)
        fraction = scheme.loaded_fraction(tile, tile)
        assert fraction == pytest.approx(np.ceil(tile / step) / tile)


class TestColumnPerforation:
    def test_cols_loads_every_other_column(self):
        mask = COLS1.loaded_mask(8, 8)
        assert mask[:, 0].all()
        assert not mask[:, 1].any()

    def test_invalid_step(self):
        with pytest.raises(SchemeError):
            ColumnPerforation(step=0)


class TestStencilPerforation:
    def test_loads_core_only(self):
        mask = STENCIL1.loaded_mask(18, 18, halo=1)
        assert mask[1:17, 1:17].all()
        assert not mask[0].any()
        assert not mask[:, 0].any()
        assert not mask[-1].any()

    def test_requires_halo(self):
        assert STENCIL1.requires_halo()
        with pytest.raises(SchemeError):
            STENCIL1.loaded_mask(16, 16, halo=0)

    def test_loaded_fraction_with_larger_halo(self):
        fraction = STENCIL1.loaded_fraction(20, 20, halo=2)
        assert fraction == pytest.approx(16 * 16 / (20 * 20))


class TestMaskInvariants:
    @given(
        tile=st.sampled_from([8, 16, 18, 20]),
        halo=st.sampled_from([0, 1, 2]),
        which=st.sampled_from(["rows1", "rows2", "cols1", "accurate"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_fraction_matches_mask_mean(self, tile, halo, which):
        scheme = {"rows1": ROWS1, "rows2": ROWS2, "cols1": COLS1, "accurate": ACCURATE}[which]
        if 2 * halo >= tile:
            return
        mask = scheme.loaded_mask(tile, tile, halo)
        assert scheme.loaded_fraction(tile, tile, halo) == pytest.approx(mask.mean())

    @given(tile=st.sampled_from([8, 16, 32]), halo=st.sampled_from([1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_stencil_mask_mean(self, tile, halo):
        if 2 * halo >= tile:
            return
        mask = STENCIL1.loaded_mask(tile, tile, halo)
        assert STENCIL1.loaded_fraction(tile, tile, halo) == pytest.approx(mask.mean())
