"""Lane-indexed memory views: global buffers, local tiles, private arrays.

**Consumes** per-lane ``int64`` index arrays (a uniform index, a plain
Python int, is broadcast to every lane) plus the active-lane mask.
**Guarantees downstream** the reference interpreter's exact observable
contract:

* bounds are checked on *active* lanes only, raising
  :class:`~repro.kernellang.errors.InterpreterError` with the
  interpreter's message for the first offending lane;
* every load/store records exactly one access *per active lane* on the
  owning buffer/local memory, so
  :class:`~repro.clsim.executor.ExecutionStats` counters are bit-identical
  across backends;
* all values cross the boundary as ``float64``, matching the simulator's
  buffer element type.

Global buffers and local tiles are :class:`LaneView` objects: each lane
may carry its own base offset, added *after* the bounds check, so one
stacked pass addresses every request's buffer segment and every work
group's tile through the same view (the batching transform,
:mod:`repro.kernellang.passes.batching`, builds them).  Method surface:
``loadf``/``storef`` (full mask, statically known) and ``loadm``/``storem``
(masked); the codegen printer selects the entry point statically.
Constant arrays are shared by every lane, so :class:`ConstantView` adds
``loadu``/``loadum`` for a uniform index.
"""

from __future__ import annotations

import numpy as np

from ..errors import InterpreterError

_INT = np.int64
_FLOAT = np.float64


def _oob(what: str, index: int, length: int) -> None:
    raise InterpreterError(f"{what}: index {index} out of bounds [0, {length})")


def _check_full(what: str, idx: np.ndarray, length: int) -> None:
    if int(idx.min()) < 0 or int(idx.max()) >= length:
        bad = idx[(idx < 0) | (idx >= length)]
        _oob(what, int(bad[0]), length)


def _check_masked(what: str, idx: np.ndarray, mask: np.ndarray, length: int) -> None:
    bad = mask & ((idx < 0) | (idx >= length))
    if np.any(bad):
        _oob(what, int(idx[bad][0]), length)


def _bval(value, mask):
    """Masked-store RHS: gather the active lanes (scalars broadcast as-is)."""
    return np.asarray(value, dtype=_FLOAT)[mask] if np.ndim(value) else value


class LaneView:
    """A global buffer or local tile addressed per lane.

    Every lane sees ``n`` elements.  ``base`` is ``None`` (the view is the
    whole array) or a per-lane offset into ``data``, applied after the
    bounds check, so a lane never leaves its own ``n``-element segment.
    ``owner`` (a :class:`~repro.clsim.memory.Buffer` or
    :class:`~repro.clsim.memory.LocalMemory`) records the accesses.
    """

    __slots__ = ("data", "owner", "n", "base", "lanes", "what")

    def __init__(self, data: np.ndarray, owner, n: int, base, lanes: int, what: str) -> None:
        self.data = data
        self.owner = owner
        self.n = n
        self.base = base
        self.lanes = lanes
        self.what = what

    def _index(self, idx) -> np.ndarray:
        if np.ndim(idx) == 0:
            return np.full(self.lanes, int(idx), dtype=_INT)
        return idx

    def _at(self, idx: np.ndarray) -> np.ndarray:
        return idx if self.base is None else idx + self.base

    def loadf(self, idx) -> np.ndarray:
        idx = self._index(idx)
        _check_full(self.what, idx, self.n)
        self.owner.record_reads(self.lanes)
        return self.data[self._at(idx)].astype(_FLOAT, copy=False)

    def loadm(self, idx, mask: np.ndarray) -> np.ndarray:
        idx = self._index(idx)
        _check_masked(self.what, idx, mask, self.n)
        self.owner.record_reads(int(mask.sum()))
        return self.data[np.where(mask, self._at(idx), 0)].astype(_FLOAT, copy=False)

    def storef(self, idx, value) -> None:
        idx = self._index(idx)
        _check_full(self.what, idx, self.n)
        self.owner.record_writes(self.lanes)
        self.data[self._at(idx)] = np.asarray(value, dtype=_FLOAT)

    def storem(self, idx, value, mask: np.ndarray) -> None:
        idx = self._index(idx)
        _check_masked(self.what, idx, mask, self.n)
        self.owner.record_writes(int(mask.sum()))
        self.data[self._at(idx)[mask]] = _bval(value, mask)


class PrivateView:
    """A fixed-size per-lane private array (``lanes x length``)."""

    __slots__ = ("values", "n", "lane_idx", "what")

    def __init__(self, name: str, length: int, lanes: int) -> None:
        self.values = np.zeros((lanes, length), dtype=_FLOAT)
        self.n = length
        self.lane_idx = np.arange(lanes)
        self.what = f"private array {name!r}"

    def loadf(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.ndim == 0:
            if not 0 <= int(idx) < self.n:
                _oob(self.what, int(idx), self.n)
            return self.values[:, int(idx)].copy()
        _check_full(self.what, idx, self.n)
        return self.values[self.lane_idx, idx]

    def loadm(self, idx, mask: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.ndim == 0:
            idx = np.full(self.values.shape[0], int(idx), dtype=_INT)
        _check_masked(self.what, idx, mask, self.n)
        return self.values[self.lane_idx, np.where(mask, idx, 0)]

    def storef(self, idx, value) -> None:
        idx = np.asarray(idx)
        if idx.ndim == 0:
            if not 0 <= int(idx) < self.n:
                _oob(self.what, int(idx), self.n)
            self.values[:, int(idx)] = np.asarray(value, dtype=_FLOAT)
            return
        _check_full(self.what, idx, self.n)
        self.values[self.lane_idx, idx] = np.asarray(value, dtype=_FLOAT)

    def storem(self, idx, value, mask: np.ndarray) -> None:
        idx = np.asarray(idx)
        if idx.ndim == 0:
            idx = np.full(self.values.shape[0], int(idx), dtype=_INT)
        _check_masked(self.what, idx, mask, self.n)
        self.values[self.lane_idx[mask], idx[mask]] = _bval(value, mask)


class ConstantView:
    """A file-scope ``__constant`` array (read-only, shared by all lanes)."""

    __slots__ = ("values", "n", "what")

    def __init__(self, name: str, values: np.ndarray) -> None:
        self.values = values
        self.n = values.size
        self.what = f"constant array {name!r}"

    def loadf(self, idx: np.ndarray) -> np.ndarray:
        _check_full(self.what, idx, self.n)
        return self.values[idx].astype(_FLOAT)

    def loadm(self, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
        _check_masked(self.what, idx, mask, self.n)
        return self.values[np.where(mask, idx, 0)].astype(_FLOAT)

    def loadu(self, idx: int, lanes: int) -> float:
        if not 0 <= idx < self.n:
            _oob(self.what, idx, self.n)
        return float(self.values[idx])

    def loadum(self, idx: int, mask: np.ndarray) -> float:
        if mask.any():
            if not 0 <= idx < self.n:
                _oob(self.what, idx, self.n)
            return float(self.values[idx])
        return 0.0

    def _readonly(self, *args) -> None:
        raise InterpreterError(f"{self.what} is read-only")

    storef = storem = _readonly
