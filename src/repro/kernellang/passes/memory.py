"""Lane-indexed memory views: global buffers, local tiles, private arrays.

**Consumes** per-lane ``int64`` index arrays (a uniform index, a plain
Python int, is broadcast to every lane) plus the active-lane mask.
**Guarantees downstream** the reference interpreter's exact observable
contract:

* bounds are checked on *active* lanes only, raising
  :class:`~repro.kernellang.errors.InterpreterError` with the
  interpreter's message for the first offending lane; each check is one
  unsigned comparison (a negative index read as ``uint64`` lies above
  every length);
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
(masked); the codegen printer selects the entry point statically.  Each
has an ``_in`` twin (``loadf_in``, ``loadm_in``, ``storef_in``,
``storem_in``) for an index the lowering's range fact proves in bounds on
every active lane: it skips the bounds check and records the same
accesses.  A :class:`PrivateView` is one flat lane-major array with a
spare slot at each end, so a per-lane index is one flat offset and each
access one 1-D gather or scatter; a masked load whose index stays in
``[-1, n]`` on *every* lane (and in bounds on the active ones) may use
:meth:`PrivateView.loadf_in`, with no mask arithmetic.  Constant arrays are shared by every lane,
so :class:`ConstantView` adds ``loadu``/``loadum`` for a uniform index.
Loads return fresh arrays and nothing here writes into an array it was
handed: the lowered source binds lane arrays to variables without copying
them.
"""

from __future__ import annotations

import numpy as np

from ..errors import InterpreterError

_INT = np.int64
_UINT = np.uint64
_FLOAT = np.float64


def _oob(what: str, index: int, length: int) -> None:
    raise InterpreterError(f"{what}: index {index} out of bounds [0, {length})")


def _check(what: str, idx: np.ndarray, length: int, mask=None) -> None:
    """Bounds-check every lane (only the active ones, given ``mask``)."""
    wide = idx.view(_UINT) if idx.dtype == _INT else idx.astype(_UINT)
    if mask is None:
        if wide.max() < length:
            return
        mask = True
    bad = mask & (wide >= length)
    if bad.any():
        _oob(what, int(idx[bad.argmax()]), length)


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
        _check(self.what, idx, self.n)
        return self.loadf_in(idx)

    def loadm(self, idx, mask: np.ndarray) -> np.ndarray:
        idx = self._index(idx)
        _check(self.what, idx, self.n, mask)
        return self.loadm_in(idx, mask)

    def storef(self, idx, value) -> None:
        idx = self._index(idx)
        _check(self.what, idx, self.n)
        self.storef_in(idx, value)

    def storem(self, idx, value, mask: np.ndarray) -> None:
        idx = self._index(idx)
        _check(self.what, idx, self.n, mask)
        self.storem_in(idx, value, mask)

    # In-bounds entry points: the index is in range on every active lane.
    def loadf_in(self, idx) -> np.ndarray:
        self.owner.record_reads(self.lanes)
        return self.data[self._at(self._index(idx))].astype(_FLOAT, copy=False)

    def loadm_in(self, idx, mask: np.ndarray) -> np.ndarray:
        self.owner.record_reads(int(mask.sum()))
        return self.data[self._at(self._index(idx)) * mask].astype(_FLOAT, copy=False)

    def storef_in(self, idx, value) -> None:
        self.owner.record_writes(self.lanes)
        self.data[self._at(self._index(idx))] = np.asarray(value, dtype=_FLOAT)

    def storem_in(self, idx, value, mask: np.ndarray) -> None:
        self.owner.record_writes(int(mask.sum()))
        self.data[self._at(self._index(idx))[mask]] = _bval(value, mask)


class PrivateView:
    """A fixed-size per-lane private array, flat and lane-major: lane ``k``'s
    element ``i`` is ``values[1 + k * n + i]``, and the first and last slots
    are spares.  Masked accesses send their inactive lanes to the first; a
    lane array that stays within ``[-1, n]`` on *every* lane may be read
    with no mask arithmetic at all (:meth:`loadf_in`), since ``-1`` and
    ``n`` land on a spare or a neighbour's element, never outside the
    array."""

    __slots__ = ("values", "n", "base", "what")

    def __init__(self, name: str, length: int, lanes: int) -> None:
        self.values = np.zeros(lanes * length + 2, dtype=_FLOAT)
        self.n = length
        self.base = np.arange(1, lanes * length + 1, length, dtype=_INT)
        self.what = f"private array {name!r}"

    def _column(self, idx) -> slice:
        """Every lane's element ``idx`` (a uniform index) as a strided slice."""
        return slice(1 + int(idx), -1, self.n)

    def _offsets(self, idx, mask: np.ndarray) -> np.ndarray:
        """Flat offsets of the active lanes' elements, 0 (a spare) for the
        rest: arithmetic, since ``np.where`` branches on every lane."""
        return (self.base + idx) * mask

    def _check_uniform(self, idx) -> None:
        if not 0 <= int(idx) < self.n:
            _oob(self.what, int(idx), self.n)

    def loadf(self, idx) -> np.ndarray:
        if np.ndim(idx) == 0:
            self._check_uniform(idx)
        else:
            _check(self.what, idx, self.n)
        return self.loadf_in(idx)

    def loadm(self, idx, mask: np.ndarray) -> np.ndarray:
        _check(self.what, self._lanes(idx), self.n, mask)
        return self.loadm_in(idx, mask)

    def storef(self, idx, value) -> None:
        if np.ndim(idx) == 0:
            self._check_uniform(idx)
        else:
            _check(self.what, idx, self.n)
        self.storef_in(idx, value)

    def storem(self, idx, value, mask: np.ndarray) -> None:
        _check(self.what, self._lanes(idx), self.n, mask)
        self.storem_in(idx, value, mask)

    def _lanes(self, idx) -> np.ndarray:
        return np.full(self.base.size, int(idx), dtype=_INT) if np.ndim(idx) == 0 else idx

    # In-bounds entry points: the index is in range on every active lane.
    def loadf_in(self, idx) -> np.ndarray:
        """Every lane's element ``idx``; also serves a masked load whose
        ``idx`` lies in ``[-1, n]`` on every lane and in bounds on the
        active ones."""
        if np.ndim(idx) == 0:
            return self.values[self._column(idx)].copy()
        return self.values[self.base + idx]

    def loadm_in(self, idx, mask: np.ndarray) -> np.ndarray:
        return self.values[self._offsets(idx, mask)]

    def storef_in(self, idx, value) -> None:
        if np.ndim(idx) == 0:
            self.values[self._column(idx)] = value
            return
        self.values[self.base + idx] = value

    def storem_in(self, idx, value, mask: np.ndarray) -> None:
        self.values[self._offsets(idx, mask)] = value


class ConstantView:
    """A file-scope ``__constant`` array (read-only, shared by all lanes)."""

    __slots__ = ("values", "n", "what")

    def __init__(self, name: str, values: np.ndarray) -> None:
        self.values = values
        self.n = values.size
        self.what = f"constant array {name!r}"

    def loadf(self, idx: np.ndarray) -> np.ndarray:
        _check(self.what, idx, self.n)
        return self.loadf_in(idx)

    def loadm(self, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
        _check(self.what, idx, self.n, mask)
        return self.loadm_in(idx, mask)

    def loadf_in(self, idx: np.ndarray) -> np.ndarray:
        return self.values[idx].astype(_FLOAT)

    def loadm_in(self, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return self.values[idx * mask].astype(_FLOAT)

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

    storef = storem = storef_in = storem_in = _readonly
