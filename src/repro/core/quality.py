"""Output-quality metrics.

The paper uses two metrics (Table 1): the *mean relative error* (MRE) for
Gaussian, Median, Hotspot and Inversion, and the *mean error* for the
Sobel applications (whose outputs are frequently zero, which makes the MRE
ill-defined).  Both are provided here, together with a few additional
metrics (RMSE, PSNR, maximum error) that are useful for the extended
analyses and for tests.

Measuring many approximations against one reference (a sweep, a tuning
batch) goes through :class:`ErrorReference`: :func:`compute_error` then
computes the reference-only terms once, in its first call, and every later
call reuses them.  The floats are the plain array path's bit for bit.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QualityError

#: Denominator guard for the mean relative error: reference values whose
#: magnitude is below this threshold are excluded from the mean (the paper
#: notes the metric is "very high or undefined" there).
MRE_EPSILON = 1e-6

#: Additional relative floor for the MRE denominator: reference values are
#: never divided by less than this fraction of the reference maximum.  The
#: paper observes that near-zero reference values make the MRE explode
#: (and switches Sobel to the mean error for that reason); the floor keeps
#: the metric finite for applications such as Inversion whose outputs pass
#: through zero while leaving mid-range values untouched.
MRE_RELATIVE_FLOOR = 0.01


class ErrorMetric(str, enum.Enum):
    """Error metrics used in the evaluation."""

    MEAN_RELATIVE_ERROR = "mean relative error"
    MEAN_ERROR = "mean error"
    RMSE = "root mean squared error"
    MAX_ERROR = "maximum error"
    PSNR = "peak signal-to-noise ratio"


def _validate(reference: np.ndarray, approximate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = np.asarray(reference, dtype=np.float64)
    approx = np.asarray(approximate, dtype=np.float64)
    if ref.shape != approx.shape:
        raise QualityError(
            f"shape mismatch: reference {ref.shape} vs approximate {approx.shape}"
        )
    if ref.size == 0:
        raise QualityError("cannot compute an error on empty arrays")
    return ref, approx


def mean_relative_error(
    reference: np.ndarray,
    approximate: np.ndarray,
    epsilon: float = MRE_EPSILON,
    relative_floor: float = MRE_RELATIVE_FLOOR,
) -> float:
    """Mean of ``|ref - approx| / |ref|`` with a floored denominator.

    Elements whose reference magnitude is below ``epsilon`` are excluded;
    the remaining denominators are floored at ``relative_floor`` times the
    reference maximum so that isolated near-zero reference values cannot
    dominate the mean (the failure mode the paper describes in Section 6.1).
    If every reference value is (near) zero the function falls back to the
    normalised mean error, mirroring the paper's choice for Sobel.
    """
    ref, approx = _validate(reference, approximate)
    terms = _relative_terms(ref, epsilon, relative_floor)
    if terms is None:
        return _normalized_error(_range(ref), ref, approx)
    return _relative_error(terms, approx)


def _relative_terms(
    ref: np.ndarray, epsilon: float, relative_floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
    """The reference-only terms of the MRE, or ``None`` if no element is valid.

    They are ``ref`` and the floored denominators at the valid elements, as
    1-D arrays in C order, and the valid mask (``None`` when every element
    is valid: ``ravel()`` then gives the sequence the mask would gather).
    """
    magnitude = np.abs(ref)
    valid = magnitude > epsilon
    if not valid.any():
        return None
    floor = relative_floor * float(magnitude.max())
    if valid.all():
        return ref.ravel(), np.maximum(magnitude, floor).ravel(), None
    return ref[valid], np.maximum(magnitude[valid], floor), valid


def _relative_error(
    terms: tuple[np.ndarray, np.ndarray, np.ndarray | None], approx: np.ndarray
) -> float:
    values, denominator, valid = terms
    # mean(|values - approx| / denominator), one temporary updated in place.
    ratio = np.subtract(values, approx.ravel() if valid is None else approx[valid])
    np.abs(ratio, out=ratio)
    ratio /= denominator
    return float(np.mean(ratio))


def mean_error(reference: np.ndarray, approximate: np.ndarray) -> float:
    """Mean absolute error, ``mean(|ref - approx|)`` (unnormalised)."""
    ref, approx = _validate(reference, approximate)
    return float(np.mean(np.abs(ref - approx)))


def normalized_mean_error(reference: np.ndarray, approximate: np.ndarray) -> float:
    """Mean absolute error normalised by the reference dynamic range.

    Used for the Sobel applications so that the reported numbers are
    comparable fractions (the paper plots Sobel's "mean error" on the same
    0-0.35 axis as the relative errors of the other applications).
    """
    ref, approx = _validate(reference, approximate)
    return _normalized_error(_range(ref), ref, approx)


def _range(ref: np.ndarray) -> float:
    """The normalised mean error's scale: the reference's range, else its peak or 1."""
    scale = float(ref.max() - ref.min())
    if scale <= 0:
        scale = max(float(np.abs(ref).max()), 1.0)
    return scale


def _normalized_error(scale: float, ref: np.ndarray, approx: np.ndarray) -> float:
    difference = ref - approx
    np.abs(difference, out=difference)
    return float(np.mean(difference) / scale)


def rmse(reference: np.ndarray, approximate: np.ndarray) -> float:
    """Root mean squared error."""
    ref, approx = _validate(reference, approximate)
    return float(np.sqrt(np.mean((ref - approx) ** 2)))


def max_error(reference: np.ndarray, approximate: np.ndarray) -> float:
    """Maximum absolute error."""
    ref, approx = _validate(reference, approximate)
    return float(np.max(np.abs(ref - approx)))


def psnr(reference: np.ndarray, approximate: np.ndarray, peak: float | None = None) -> float:
    """Peak signal-to-noise ratio in dB (``inf`` for identical arrays)."""
    ref, approx = _validate(reference, approximate)
    mse = float(np.mean((ref - approx) ** 2))
    if mse == 0:
        return math.inf
    if peak is None:
        peak = float(np.abs(ref).max())
        if peak <= 0:
            peak = 1.0
    return float(10.0 * math.log10(peak * peak / mse))


def compute_error(
    reference: np.ndarray | ErrorReference, approximate: np.ndarray, metric: ErrorMetric
) -> float:
    """Dispatch on :class:`ErrorMetric`.

    ``reference`` may be an :class:`ErrorReference`, which computes its
    reference-only terms in the first call that needs them and reuses them
    in every later one; the error is the same float either way.
    """
    if isinstance(reference, ErrorReference):
        return reference.error(approximate, metric)
    if metric is ErrorMetric.MEAN_RELATIVE_ERROR:
        return mean_relative_error(reference, approximate)
    if metric is ErrorMetric.MEAN_ERROR:
        return normalized_mean_error(reference, approximate)
    if metric is ErrorMetric.RMSE:
        return rmse(reference, approximate)
    if metric is ErrorMetric.MAX_ERROR:
        return max_error(reference, approximate)
    if metric is ErrorMetric.PSNR:
        return psnr(reference, approximate)
    raise QualityError(f"unknown error metric {metric!r}")


class ErrorReference:
    """A reference output whose error terms are computed once for many errors.

    :meth:`PerforationEngine.errors <repro.api.engine.PerforationEngine.errors>`
    wraps each reference once per call and measures every approximation
    against it with :func:`compute_error`.  The terms that depend on the
    reference alone (the mean relative error's |ref|, valid mask, floor,
    denominators and ``ref`` at the valid elements; the normalised mean
    error's range) are computed by the first error that needs them, inside
    that :func:`compute_error` call, and live as long as the wrapper.  Every
    error equals the plain array path's bit for bit.
    """

    def __init__(self, reference: np.ndarray) -> None:
        self.array = np.asarray(reference, dtype=np.float64)

    @functools.cached_property
    def _relative(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
        return _relative_terms(self.array, MRE_EPSILON, MRE_RELATIVE_FLOOR)

    @functools.cached_property
    def _scale(self) -> float:
        return _range(self.array)

    def error(self, approximate: np.ndarray, metric: ErrorMetric) -> float:
        """``compute_error(self.array, approximate, metric)``, from the kept terms."""
        ref, approx = _validate(self.array, approximate)
        if metric is ErrorMetric.MEAN_RELATIVE_ERROR and self._relative is not None:
            return _relative_error(self._relative, approx)
        if metric in (ErrorMetric.MEAN_RELATIVE_ERROR, ErrorMetric.MEAN_ERROR):
            return _normalized_error(self._scale, ref, approx)
        return compute_error(ref, approx, metric)


@dataclass(frozen=True)
class ErrorSummary:
    """Distribution statistics of per-input errors (one box of Figure 6)."""

    count: int
    mean: float
    median: float
    minimum: float
    maximum: float
    p25: float
    p75: float
    std: float

    @classmethod
    def from_errors(cls, errors: list[float] | np.ndarray) -> "ErrorSummary":
        values = np.asarray(list(errors), dtype=np.float64)
        if values.size == 0:
            raise QualityError("cannot summarise an empty error list")
        return cls(
            count=int(values.size),
            mean=float(values.mean()),
            median=float(np.median(values)),
            minimum=float(values.min()),
            maximum=float(values.max()),
            p25=float(np.percentile(values, 25)),
            p75=float(np.percentile(values, 75)),
            std=float(values.std()),
        )

    def describe(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.4f} median={self.median:.4f} "
            f"p25={self.p25:.4f} p75={self.p75:.4f} max={self.maximum:.4f}"
        )
