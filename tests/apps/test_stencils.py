"""The shared stencil helpers: the 3x3 median network against ``np.median``.

``rank_filter`` takes the 3x3 median with Paeth's 19-exchange selection
network (``median9``) instead of ``np.median``.  The network must give
``np.median``'s value on every window, NaN included, and its bytes wherever
the window holds no -0.0: ``np.median`` takes the mean of the middle
element, which turns -0.0 into +0.0, while the network returns one of the
window's own values.  (The two zeros compare equal, and the images hold no
-0.0.)  Other radii and ranks keep ``np.median`` and ``min``/``max`` over the
gathered neighbourhood.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.stencils import gather_neighborhood, median9, rank_filter
from repro.core.reconstruction import AccurateSampler
from repro.data import generate_image

#: A small value set, so windows are full of ties.
VALUES = [0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5, np.nan]


def _holds_negative_zero(windows: np.ndarray) -> np.ndarray:
    return ((windows == 0.0) & np.signbit(windows)).any(axis=0)


class TestMedianNetwork:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.just(9), st.integers(1, 6), st.integers(1, 6)),
            elements=st.sampled_from(VALUES),
        )
    )
    def test_matches_np_median(self, windows):
        expected = np.median(windows, axis=0)
        result = median9(windows.copy())
        assert result.dtype == expected.dtype and result.shape == expected.shape
        np.testing.assert_array_equal(result, expected)  # NaN == NaN here
        clean = ~_holds_negative_zero(windows)
        assert result[clean].tobytes() == expected[clean].tobytes()
        # Elsewhere only a zero median's sign differs.
        differ = result.view(np.uint64) != expected.view(np.uint64)
        assert np.all(~differ | ((result == 0.0) & np.signbit(result)))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(hnp.arrays(np.float64, (7, 5), elements=st.sampled_from(VALUES)))
    def test_rank_filter_median_matches_np_median(self, image):
        sampler = AccurateSampler(image)
        expected = np.median(gather_neighborhood(sampler, 1), axis=0)
        np.testing.assert_array_equal(rank_filter(sampler, 1, "median"), expected)

    def test_result_owns_its_memory(self):
        stack = gather_neighborhood(AccurateSampler(generate_image("natural", size=32)), 1)
        result = median9(stack)
        assert result.flags.owndata and not np.shares_memory(result, stack)
        filtered = rank_filter(AccurateSampler(generate_image("natural", size=32)), 1)
        assert filtered.flags.owndata and filtered.base is None


class TestOtherRanks:
    @pytest.mark.parametrize(
        "radius, rank, combine",
        [
            (2, "median", lambda n: np.median(n, axis=0)),
            (1, "min", lambda n: n.min(axis=0)),
            (1, "max", lambda n: n.max(axis=0)),
            (2, "min", lambda n: n.min(axis=0)),
            (2, "max", lambda n: n.max(axis=0)),
        ],
    )
    def test_unchanged(self, radius, rank, combine):
        sampler = AccurateSampler(generate_image("natural", size=32, seed=5))
        expected = combine(gather_neighborhood(sampler, radius))
        assert rank_filter(sampler, radius, rank).tobytes() == expected.tobytes()

    def test_unknown_rank_rejected(self):
        with pytest.raises(ValueError):
            rank_filter(AccurateSampler(np.zeros((4, 4))), 1, "mode")
