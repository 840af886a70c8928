"""Batching transform: route every lane into its own request's segment.

**Consumes** a batched launch — ``batch`` compatible launches stacked
into one SIMT group, with request ``r`` occupying lanes
``[r * group_size, (r + 1) * group_size)`` — plus
:class:`~repro.clsim.memory.SegmentedBuffer` pointer arguments.
**Guarantees downstream** bit-identity with ``batch`` individual
launches: lanes of different requests can never observe each other's
data, because

* :func:`lane_requests` fixes the lane→request routing
  (``np.repeat(arange(batch), group_size)``), from which each view's
  per-lane segment base offset is derived;
* :class:`SegGlobalView` adds the base offset *after* bounds-checking the
  per-segment index against ``segment_elements``, so per-request indexing
  and error behaviour are exactly those of an individual launch;
* :class:`SegLocalView` gives each request its own ``length``-element
  tile of one shared allocation (request ``r`` owns
  ``[r * length, (r + 1) * length)``), so staging never mixes requests;
* :func:`segmented_global_view` is the single validation point for the
  SegmentedBuffer contract.

The uniform-index entry points of the unsegmented views do not exist
here: the same logical index reads a *different* segment per request, so
the uniformity pass classifies every global/local access of a batched
lowering as varying and only the ``loadf``/``loadm``/``storef``/
``storem`` surface is needed.  Access counters still record one access
per active lane, which is what makes batched
:class:`~repro.clsim.executor.ExecutionStats` equal ``batch`` times the
per-launch stats.
"""

from __future__ import annotations

import numpy as np

from ...clsim.memory import SegmentedBuffer
from ..errors import InterpreterError
from .memory import _bval, _check_full, _check_masked

_INT = np.int64
_FLOAT = np.float64


def lane_requests(batch: int, group_size: int) -> np.ndarray:
    """Request index of every lane of a batched group."""
    return np.repeat(np.arange(batch, dtype=_INT), group_size)


class SegGlobalView:
    """Batched variant of ``GlobalView``: each lane addresses its segment."""

    __slots__ = ("buffer", "flat", "n", "base", "what")

    def __init__(self, buffer: SegmentedBuffer, base: np.ndarray) -> None:
        self.buffer = buffer
        self.flat = buffer.array.reshape(-1)
        self.n = buffer.segment_elements
        self.base = base
        self.what = f"global buffer {buffer.name!r}"

    def loadf(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.ndim == 0:
            idx = np.full(self.base.shape[0], int(idx), dtype=_INT)
        _check_full(self.what, idx, self.n)
        self.buffer.record_reads(idx.shape[0])
        return self.flat[idx + self.base].astype(_FLOAT)

    def loadm(self, idx, mask: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.ndim == 0:
            idx = np.full(self.base.shape[0], int(idx), dtype=_INT)
        _check_masked(self.what, idx, mask, self.n)
        self.buffer.record_reads(int(mask.sum()))
        return self.flat[np.where(mask, idx + self.base, 0)].astype(_FLOAT)

    def storef(self, idx, value) -> None:
        idx = np.asarray(idx)
        if idx.ndim == 0:
            idx = np.full(self.base.shape[0], int(idx), dtype=_INT)
        _check_full(self.what, idx, self.n)
        self.buffer.record_writes(idx.shape[0])
        self.flat[idx + self.base] = np.asarray(value, dtype=_FLOAT)

    def storem(self, idx, value, mask: np.ndarray) -> None:
        idx = np.asarray(idx)
        if idx.ndim == 0:
            idx = np.full(self.base.shape[0], int(idx), dtype=_INT)
        _check_masked(self.what, idx, mask, self.n)
        self.buffer.record_writes(int(mask.sum()))
        self.flat[(idx + self.base)[mask]] = _bval(value, mask)


class SegLocalView:
    """Batched variant of ``LocalView``: one tile per request, stacked."""

    __slots__ = ("mem", "tile", "n", "base", "what")

    def __init__(self, mem, name: str, length: int, base: np.ndarray, batch: int) -> None:
        self.mem = mem
        self.tile = mem.allocate(name, (batch * length,), dtype=_FLOAT)
        self.n = length
        self.base = base
        self.what = f"local array {name!r}"

    def loadf(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.ndim == 0:
            idx = np.full(self.base.shape[0], int(idx), dtype=_INT)
        _check_full(self.what, idx, self.n)
        self.mem.record_reads(idx.shape[0])
        return self.tile[idx + self.base].astype(_FLOAT)

    def loadm(self, idx, mask: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.ndim == 0:
            idx = np.full(self.base.shape[0], int(idx), dtype=_INT)
        _check_masked(self.what, idx, mask, self.n)
        self.mem.record_reads(int(mask.sum()))
        return self.tile[np.where(mask, idx + self.base, 0)].astype(_FLOAT)

    def storef(self, idx, value) -> None:
        idx = np.asarray(idx)
        if idx.ndim == 0:
            idx = np.full(self.base.shape[0], int(idx), dtype=_INT)
        _check_full(self.what, idx, self.n)
        self.mem.record_writes(idx.shape[0])
        self.tile[idx + self.base] = np.asarray(value, dtype=_FLOAT)

    def storem(self, idx, value, mask: np.ndarray) -> None:
        idx = np.asarray(idx)
        if idx.ndim == 0:
            idx = np.full(self.base.shape[0], int(idx), dtype=_INT)
        _check_masked(self.what, idx, mask, self.n)
        self.mem.record_writes(int(mask.sum()))
        self.tile[(idx + self.base)[mask]] = _bval(value, mask)


def segmented_global_view(buffer, batch: int, lane_request: np.ndarray) -> SegGlobalView:
    """Validate the SegmentedBuffer contract and build the segmented view.

    Single shared validation point: every batched lowering raises the same
    error for a pointer argument that is not a ``batch``-segment
    :class:`~repro.clsim.memory.SegmentedBuffer`.
    """
    if not isinstance(buffer, SegmentedBuffer) or buffer.batch != batch:
        raise InterpreterError(
            f"batched launch requires every pointer argument to be a "
            f"SegmentedBuffer with {batch} segments, got {buffer!r}"
        )
    return SegGlobalView(buffer, lane_request * buffer.segment_elements)
