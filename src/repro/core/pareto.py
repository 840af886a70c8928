"""Pareto-optimality analysis (Section 6.4 of the paper).

Every evaluated configuration is a point in the (speedup, error) plane;
a configuration is Pareto-optimal when no other configuration is both
faster and more accurate.  The functions here are generic over any object
exposing ``speedup`` and ``error`` attributes (e.g.
:class:`~repro.core.pipeline.ConfigurationResult` or
:class:`~repro.core.tuning.SweepPoint`).
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def _default_error(point) -> float:
    return float(point.error)


def _default_speedup(point) -> float:
    return float(point.speedup)


def dominates(
    a: T,
    b: T,
    error_of: Callable[[T], float] = _default_error,
    speedup_of: Callable[[T], float] = _default_speedup,
) -> bool:
    """Whether point ``a`` dominates point ``b``.

    ``a`` dominates ``b`` when it is at least as fast *and* at least as
    accurate, and strictly better in at least one of the two.
    """
    not_worse = speedup_of(a) >= speedup_of(b) and error_of(a) <= error_of(b)
    strictly_better = speedup_of(a) > speedup_of(b) or error_of(a) < error_of(b)
    return not_worse and strictly_better


def pareto_front(
    points: Sequence[T],
    error_of: Callable[[T], float] = _default_error,
    speedup_of: Callable[[T], float] = _default_speedup,
) -> list[T]:
    """Return the Pareto-optimal subset of ``points``.

    The result is sorted by increasing speedup (and therefore, along the
    front, by increasing error), which matches how the paper draws the
    dashed front in Figure 10.

    Tie handling is deterministic and exact:

    * points that tie on one objective but differ on the other are ordinary
      dominance cases — the worse point is dropped;
    * points with *bit-identical* ``(speedup, error)`` pairs do not
      dominate each other; the front keeps exactly one witness per
      duplicated pair — the occurrence that comes **first in the input
      sequence** — no matter how many duplicates follow or where they sit.
      (Near-ties that differ in the last few bits are distinct points and
      are all kept when mutually non-dominating; no rounding is applied.)

    Consequently a front never contains two entries with the same
    ``(speedup, error)`` pair, and reordering the input can only permute
    which *equal-valued* witness is returned, never change the front's
    value set or size.
    """
    front: list[tuple[tuple[float, float], T]] = []
    seen: set[tuple[float, float]] = set()
    for candidate in points:
        key = (speedup_of(candidate), error_of(candidate))
        if key in seen:
            continue  # duplicate pair: the first occurrence is the witness
        if any(
            dominates(other, candidate, error_of, speedup_of)
            for other in points
            if other is not candidate
        ):
            continue
        seen.add(key)
        front.append((key, candidate))
    front.sort(key=lambda entry: entry[0])
    return [candidate for _, candidate in front]
