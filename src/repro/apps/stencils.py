"""Shared helpers for stencil-style applications.

The image-processing benchmarks all follow the same structure: gather a
small neighbourhood of every pixel (through an :class:`InputSampler`, which
may be exact or perforated + reconstructed) and combine it — by a weighted
sum (Gaussian, Sobel), a rank filter (Median) or a finite-difference update
(Hotspot).  The helpers here implement the gather/combine patterns once.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..core.reconstruction import InputSampler


def offsets_for_radius(radius: int) -> list[tuple[int, int]]:
    """All (dx, dy) offsets of a square (2*radius+1)^2 neighbourhood."""
    return [
        (dx, dy)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
    ]


def convolve(sampler: InputSampler, weights: np.ndarray) -> np.ndarray:
    """2D convolution (correlation) of the sampled input with ``weights``.

    ``weights`` is a (2r+1) x (2r+1) array; zero weights are skipped, which
    matters for the Sobel masks whose centre column/row is zero.
    """
    (result,) = convolve_masks(sampler, [weights])
    return result


def convolve_masks(sampler: InputSampler, masks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """:func:`convolve` with each of ``masks`` (all one size), in one pass over the taps.

    A tap is read once if any mask weighs it.  Every sum starts from zeros
    and adds ``weight * value`` for its non-zero weights in ``(dy, dx)``
    order, in place through one scratch plane, so each result is bit for bit
    what the plain ``result += weight * value`` loop gives.
    """
    masks = [np.asarray(mask, dtype=np.float64) for mask in masks]
    shape = masks[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 2 == 0:
        raise ValueError(f"weights must be a square odd-sized array, got {shape}")
    if any(mask.shape != shape for mask in masks):
        raise ValueError("all masks must have one shape")
    radius = shape[0] // 2
    sums = [np.zeros((sampler.height, sampler.width)) for _ in masks]
    term = np.empty_like(sums[0])
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            weights = [mask[dy + radius, dx + radius] for mask in masks]
            if all(weight == 0.0 for weight in weights):
                continue
            values = sampler.read_offset(dx, dy)
            for total, weight in zip(sums, weights):
                if weight != 0.0:
                    np.multiply(weight, values, out=term)
                    total += term
    return sums


def gather_neighborhood(sampler: InputSampler, radius: int) -> np.ndarray:
    """Stack the full neighbourhood: shape ((2r+1)^2, height, width)."""
    planes = [sampler.read_offset(dx, dy) for dx, dy in offsets_for_radius(radius)]
    return np.stack(planes, axis=0)


# fmt: off
#: Paeth's 3x3 median network ("Median finding on a 3x3 grid", Graphics
#: Gems, 1990): 19 compare-exchanges ``(lo, hi, half)`` that leave the
#: median of nine slots in slot 4.  ``half`` names the outputs a later
#: exchange reads: ``"both"``, or only the ``"min"`` (kept in ``lo``) or the
#: ``"max"`` (kept in ``hi``).
MEDIAN9_NETWORK = (
    # Sort each column triple (0, 1, 2), (3, 4, 5), (6, 7, 8).
    (1, 2, "both"), (4, 5, "both"), (7, 8, "both"),
    (0, 1, "both"), (3, 4, "both"), (6, 7, "both"),
    (1, 2, "both"), (4, 5, "both"), (7, 8, "both"),
    # Max of the minima into 6, min of the maxima into 2, median of the
    # medians into 4; then the median of slots 2, 4 and 6 into 4.
    (0, 3, "max"), (5, 8, "min"), (4, 7, "both"),
    (3, 6, "max"), (1, 4, "max"), (2, 5, "min"),
    (4, 7, "min"), (4, 2, "both"), (6, 4, "max"),
    (4, 2, "min"),
)
# fmt: on


def median9(planes: np.ndarray) -> np.ndarray:
    """Median over the first axis of a writable (9, H, W) array.

    Runs :data:`MEDIAN9_NETWORK` in place with one scratch plane, so it
    overwrites ``planes``; the result is a new array that shares no memory
    with them.  It equals ``np.median(planes, axis=0)`` in value, NaN
    included (``np.minimum``/``np.maximum`` propagate it).  Only the sign of
    a zero median can differ: the network returns one of the window's own
    values, which may be -0.0, where ``np.median`` returns +0.0.
    """
    slots = list(planes)
    scratch = np.empty_like(slots[0])
    *network, (last_lo, last_hi, _) = MEDIAN9_NETWORK
    for lo, hi, half in network:
        if half == "max":
            np.maximum(slots[lo], slots[hi], out=slots[hi])
        elif half == "min":
            np.minimum(slots[lo], slots[hi], out=slots[lo])
        else:
            np.minimum(slots[lo], slots[hi], out=scratch)
            np.maximum(slots[lo], slots[hi], out=slots[hi])
            slots[lo], scratch = scratch, slots[lo]
    return np.minimum(slots[last_lo], slots[last_hi])


def rank_filter(sampler: InputSampler, radius: int, rank: str = "median") -> np.ndarray:
    """Rank filter over the neighbourhood (``median``, ``min`` or ``max``).

    The 3x3 median runs :func:`median9`; other radii use ``np.median``.
    """
    neighborhood = gather_neighborhood(sampler, radius)
    if rank == "median":
        if radius == 1:
            return median9(neighborhood)
        return np.median(neighborhood, axis=0)
    if rank == "min":
        return neighborhood.min(axis=0)
    if rank == "max":
        return neighborhood.max(axis=0)
    raise ValueError(f"unknown rank {rank!r}")


def count_nonzero_weights(weights: Iterable[Iterable[float]]) -> int:
    """Number of non-zero coefficients (used for op-count estimates)."""
    return int(np.count_nonzero(np.asarray(list(weights), dtype=np.float64)))
