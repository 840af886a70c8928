"""Lane-indexed memory views: global buffers, local tiles, private arrays.

**Consumes** per-lane ``int64`` index arrays (or plain Python ints on the
uniform entry points) plus the active-lane mask.  **Guarantees
downstream** the reference interpreter's exact observable contract:

* bounds are checked on *active* lanes only, raising
  :class:`~repro.kernellang.errors.InterpreterError` with the
  interpreter's message for the first offending lane;
* every load/store records exactly one access *per active lane* on the
  owning buffer/local memory, so
  :class:`~repro.clsim.executor.ExecutionStats` counters are bit-identical
  across backends (the uniform entry points count all ``lanes`` — each
  work-item performed the access — and a full-mask store to one shared
  address keeps last-lane-wins semantics);
* all values cross the boundary as ``float64``, matching the simulator's
  buffer element type.

Method surface per view: ``loadf``/``storef`` (full mask, statically
known), ``loadm``/``storem`` (masked), and on the unsegmented views
``loadu``/``storeu`` (uniform index, full mask) and ``loadum``/
``storeum`` (uniform index, masked).  The codegen printer selects the
cheapest entry point statically.  The batched variants live in
:mod:`repro.kernellang.passes.batching`.
"""

from __future__ import annotations

import numpy as np

from ...clsim.memory import Buffer
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


def _last(value):
    """Scalar written by a full-mask store to one shared address (last lane wins)."""
    return float(value[-1]) if np.ndim(value) else value


def _bval(value, mask):
    """Masked-store RHS: gather the active lanes (scalars broadcast as-is)."""
    return np.asarray(value, dtype=_FLOAT)[mask] if np.ndim(value) else value


class GlobalView:
    """Flat view of a global :class:`Buffer` with full/masked/uniform paths."""

    __slots__ = ("buffer", "flat", "n", "what")

    def __init__(self, buffer: Buffer) -> None:
        self.buffer = buffer
        self.flat = buffer.array.reshape(-1)
        self.n = self.flat.size
        self.what = f"global buffer {buffer.name!r}"

    def loadf(self, idx: np.ndarray) -> np.ndarray:
        _check_full(self.what, idx, self.n)
        self.buffer.record_reads(idx.shape[0])
        return self.flat[idx].astype(_FLOAT)

    def loadm(self, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
        _check_masked(self.what, idx, mask, self.n)
        self.buffer.record_reads(int(mask.sum()))
        return self.flat[np.where(mask, idx, 0)].astype(_FLOAT)

    def loadu(self, idx: int, lanes: int) -> float:
        if not 0 <= idx < self.n:
            _oob(self.what, idx, self.n)
        self.buffer.record_reads(lanes)
        return float(self.flat[idx])

    def loadum(self, idx: int, mask: np.ndarray) -> float:
        count = int(mask.sum())
        if count:
            if not 0 <= idx < self.n:
                _oob(self.what, idx, self.n)
            self.buffer.record_reads(count)
            return float(self.flat[idx])
        return 0.0

    def storef(self, idx: np.ndarray, value) -> None:
        _check_full(self.what, idx, self.n)
        self.buffer.record_writes(idx.shape[0])
        self.flat[idx] = np.asarray(value, dtype=_FLOAT)

    def storem(self, idx: np.ndarray, value, mask: np.ndarray) -> None:
        _check_masked(self.what, idx, mask, self.n)
        self.buffer.record_writes(int(mask.sum()))
        self.flat[idx[mask]] = _bval(value, mask)

    def storeu(self, idx: int, value, lanes: int) -> None:
        if not 0 <= idx < self.n:
            _oob(self.what, idx, self.n)
        self.buffer.record_writes(lanes)
        self.flat[idx] = _last(value)

    def storeum(self, idx: int, value, mask: np.ndarray) -> None:
        count = int(mask.sum())
        if count:
            if not 0 <= idx < self.n:
                _oob(self.what, idx, self.n)
            self.buffer.record_writes(count)
            value = float(np.asarray(value, dtype=_FLOAT)[mask][-1]) if np.ndim(value) else value
            self.flat[idx] = value


class LocalView:
    """A named tile in the work group's local memory."""

    __slots__ = ("mem", "tile", "n", "what")

    def __init__(self, mem, name: str, length: int) -> None:
        self.mem = mem
        self.tile = mem.allocate(name, (length,), dtype=_FLOAT)
        self.n = length
        self.what = f"local array {name!r}"

    def loadf(self, idx: np.ndarray) -> np.ndarray:
        _check_full(self.what, idx, self.n)
        self.mem.record_reads(idx.shape[0])
        return self.tile[idx].astype(_FLOAT)

    def loadm(self, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
        _check_masked(self.what, idx, mask, self.n)
        self.mem.record_reads(int(mask.sum()))
        return self.tile[np.where(mask, idx, 0)].astype(_FLOAT)

    def loadu(self, idx: int, lanes: int) -> float:
        if not 0 <= idx < self.n:
            _oob(self.what, idx, self.n)
        self.mem.record_reads(lanes)
        return float(self.tile[idx])

    def loadum(self, idx: int, mask: np.ndarray) -> float:
        count = int(mask.sum())
        if count:
            if not 0 <= idx < self.n:
                _oob(self.what, idx, self.n)
            self.mem.record_reads(count)
            return float(self.tile[idx])
        return 0.0

    def storef(self, idx: np.ndarray, value) -> None:
        _check_full(self.what, idx, self.n)
        self.mem.record_writes(idx.shape[0])
        self.tile[idx] = np.asarray(value, dtype=_FLOAT)

    def storem(self, idx: np.ndarray, value, mask: np.ndarray) -> None:
        _check_masked(self.what, idx, mask, self.n)
        self.mem.record_writes(int(mask.sum()))
        self.tile[idx[mask]] = _bval(value, mask)

    def storeu(self, idx: int, value, lanes: int) -> None:
        if not 0 <= idx < self.n:
            _oob(self.what, idx, self.n)
        self.mem.record_writes(lanes)
        self.tile[idx] = _last(value)

    def storeum(self, idx: int, value, mask: np.ndarray) -> None:
        count = int(mask.sum())
        if count:
            if not 0 <= idx < self.n:
                _oob(self.what, idx, self.n)
            self.mem.record_writes(count)
            value = float(np.asarray(value, dtype=_FLOAT)[mask][-1]) if np.ndim(value) else value
            self.tile[idx] = value


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

    storef = storem = storeu = storeum = _readonly
