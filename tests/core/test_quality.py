"""Tests for the error metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    ErrorMetric,
    ErrorSummary,
    QualityError,
    compute_error,
    max_error,
    mean_error,
    mean_relative_error,
    normalized_mean_error,
    psnr,
    rmse,
)
from repro.core.quality import MRE_EPSILON, ErrorReference


def arrays(shape=(8, 8)):
    return hnp.arrays(
        dtype=np.float64,
        shape=shape,
        elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    )


class TestMeanRelativeError:
    def test_identical_arrays_have_zero_error(self):
        a = np.random.default_rng(0).random((16, 16)) + 1.0
        assert mean_relative_error(a, a) == 0.0

    def test_known_value(self):
        ref = np.full((4, 4), 10.0)
        approx = np.full((4, 4), 11.0)
        assert mean_relative_error(ref, approx) == pytest.approx(0.1)

    def test_near_zero_references_do_not_explode(self):
        ref = np.array([[100.0, 0.001], [100.0, 100.0]])
        approx = ref + 1.0
        error = mean_relative_error(ref, approx)
        assert error < 1.0  # the floored denominator prevents a blow-up

    def test_all_zero_reference_falls_back_to_normalised_error(self):
        ref = np.zeros((4, 4))
        approx = np.ones((4, 4))
        assert mean_relative_error(ref, approx) == normalized_mean_error(ref, approx)

    def test_shape_mismatch(self):
        with pytest.raises(QualityError):
            mean_relative_error(np.zeros((2, 2)), np.zeros((3, 3)))

    @given(reference=arrays(), noise=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_error_grows_with_perturbation(self, reference, noise):
        reference = reference + 10.0  # keep away from zero
        small = mean_relative_error(reference, reference + noise)
        large = mean_relative_error(reference, reference + 2 * noise)
        assert large >= small - 1e-12

    @given(reference=arrays())
    @settings(max_examples=30, deadline=None)
    def test_non_negative(self, reference):
        approx = reference * 1.1 + 0.5
        assert mean_relative_error(reference, approx) >= 0.0


class TestOtherMetrics:
    def test_mean_error(self):
        assert mean_error(np.zeros((2, 2)), np.full((2, 2), 3.0)) == 3.0

    def test_normalized_mean_error_scales_by_range(self):
        ref = np.array([[0.0, 100.0], [50.0, 25.0]])
        approx = ref + 10.0
        assert normalized_mean_error(ref, approx) == pytest.approx(0.1)

    def test_normalized_mean_error_constant_reference(self):
        ref = np.full((4, 4), 5.0)
        assert normalized_mean_error(ref, ref + 1.0) == pytest.approx(0.2)

    def test_rmse_and_max_error(self):
        ref = np.zeros((2, 2))
        approx = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert rmse(ref, approx) == pytest.approx(2.5)
        assert max_error(ref, approx) == 4.0

    def test_psnr_infinite_for_identical(self):
        a = np.ones((4, 4))
        assert math.isinf(psnr(a, a))

    def test_psnr_decreases_with_noise(self):
        rng = np.random.default_rng(1)
        ref = rng.random((32, 32)) * 255
        small = psnr(ref, ref + 1.0)
        large = psnr(ref, ref + 10.0)
        assert small > large

    @pytest.mark.parametrize("wrap", [np.asarray, ErrorReference], ids=["plain", "kept-terms"])
    def test_psnr_of_a_peak_whose_square_underflows(self, wrap):
        """``peak * peak / mse`` is 0.0 here; the log-domain form gives the
        finite value, where ``log10(0.0)`` raised."""
        ref = np.full((6, 7), 3.4e-189)
        got = compute_error(wrap(ref), np.ones((6, 7)), ErrorMetric.PSNR)
        assert got == 20.0 * math.log10(3.4e-189) - 10.0 * math.log10((1.0 - 3.4e-189) ** 2)
        assert math.isfinite(got) and got < -3000.0

    def test_psnr_of_a_peak_whose_square_overflows(self):
        ref = np.array([[1e200, 0.0], [0.0, 0.0]])
        approx = np.array([[1e200, 0.0], [0.0, 1e100]])
        mse = 1e200 / 4  # finite: only the peak's square overflows
        assert math.isinf(1e200 * 1e200 / mse)
        assert psnr(ref, approx) == 20.0 * math.log10(1e200) - 10.0 * math.log10(mse)

    def test_psnr_keeps_the_ratio_form_where_the_ratio_is_finite(self):
        ref = np.array([[3.0, 0.0], [0.0, 4.0]])
        approx = np.zeros((2, 2))
        assert psnr(ref, approx) == 10.0 * math.log10(16.0 / 6.25)

    def test_compute_error_dispatch(self):
        ref = np.full((4, 4), 10.0)
        approx = np.full((4, 4), 12.0)
        assert compute_error(ref, approx, ErrorMetric.MEAN_RELATIVE_ERROR) == pytest.approx(0.2)
        assert compute_error(ref, approx, ErrorMetric.RMSE) == pytest.approx(2.0)
        assert compute_error(ref, approx, ErrorMetric.MAX_ERROR) == pytest.approx(2.0)
        assert compute_error(ref, approx, ErrorMetric.PSNR) > 0
        assert compute_error(ref, approx, ErrorMetric.MEAN_ERROR) >= 0

    def test_empty_arrays_rejected(self):
        with pytest.raises(QualityError):
            mean_error(np.zeros((0,)), np.zeros((0,)))


#: Reference values around the MRE's epsilon, both signed zeros included.
_REFERENCE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, MRE_EPSILON, -MRE_EPSILON, 2 * MRE_EPSILON]),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


class TestErrorReference:
    @given(
        reference=hnp.arrays(np.float64, (6, 7), elements=_REFERENCE_VALUES),
        approximations=st.lists(arrays((6, 7)), min_size=1, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_kept_terms_give_the_plain_error_bit_for_bit(self, reference, approximations):
        kept = ErrorReference(reference)

        for approx in approximations:
            for metric in ErrorMetric:
                got = compute_error(kept, approx, metric).hex()
                assert got == compute_error(reference, approx, metric).hex(), metric

    def test_shape_mismatch_is_still_rejected(self):
        with pytest.raises(QualityError):
            compute_error(ErrorReference(np.ones((3, 3))), np.ones((3, 4)), ErrorMetric.MEAN_ERROR)


class TestErrorSummary:
    def test_summary_statistics(self):
        errors = [0.01, 0.02, 0.03, 0.10]
        summary = ErrorSummary.from_errors(errors)
        assert summary.count == 4
        assert summary.mean == pytest.approx(0.04)
        assert summary.median == pytest.approx(0.025)
        assert summary.minimum == 0.01
        assert summary.maximum == 0.10
        assert summary.p25 <= summary.median <= summary.p75
        assert "median" in summary.describe()

    def test_empty_errors_rejected(self):
        with pytest.raises(QualityError):
            ErrorSummary.from_errors([])

    @given(
        errors=st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=50)
    )
    @settings(max_examples=40, deadline=None)
    def test_summary_ordering_invariants(self, errors):
        summary = ErrorSummary.from_errors(errors)
        tolerance = 1e-12
        assert summary.minimum <= summary.p25 + tolerance
        assert summary.p25 <= summary.median + tolerance
        assert summary.median <= summary.p75 + tolerance
        assert summary.p75 <= summary.maximum + tolerance
        # The mean of floating-point values can overshoot the extrema by an ulp.
        assert summary.minimum - tolerance <= summary.mean <= summary.maximum + tolerance
