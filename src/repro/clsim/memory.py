"""Memory objects for the simulator: global buffers, local memory tiles and
per-work-item private memory, with access accounting.

The paper's technique is entirely about *where* data lives (global vs.
local memory) and *how much* of it is fetched.  The simulator therefore
tracks, for every buffer, the number of read/written elements, which the
timing model later converts into memory transactions and bandwidth cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import (
    BufferOutOfBoundsError,
    BufferSizeError,
    LocalMemoryExceededError,
)


class AddressSpace:
    """OpenCL address-space qualifiers."""

    GLOBAL = "global"
    LOCAL = "local"
    PRIVATE = "private"
    CONSTANT = "constant"

    ALL = (GLOBAL, LOCAL, PRIVATE, CONSTANT)


@dataclass
class AccessCounters:
    """Read/write element counters for a memory object."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0

    def merge(self, other: "AccessCounters") -> None:
        self.reads += other.reads
        self.writes += other.writes


class Buffer:
    """A global-memory buffer backed by a NumPy array.

    The buffer wraps an ``ndarray`` and counts element accesses.  Kernels
    written against the functional executor use :meth:`read` / :meth:`write`
    (bounds-checked, counted); NumPy-vectorised application code can access
    :attr:`array` directly and record traffic via :meth:`record_reads` /
    :meth:`record_writes`.
    """

    def __init__(self, array: np.ndarray, name: str = "buffer") -> None:
        if array.size == 0:
            raise BufferSizeError(f"buffer {name!r} must not be empty")
        # C order, always: the executors address buffers through a flat
        # ``reshape(-1)`` view, which would silently detach into a copy for
        # Fortran-ordered arrays (losing every store).
        self._array = np.array(array, copy=True, order="C")
        self.name = name
        self.counters = AccessCounters()

    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape: Iterable[int], dtype=np.float32, name: str = "buffer") -> "Buffer":
        """Create a zero-initialised buffer."""
        return cls(np.zeros(tuple(shape), dtype=dtype), name=name)

    # ------------------------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        """The backing array (direct access does not update counters)."""
        return self._array

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    @property
    def itemsize(self) -> int:
        """Size of one element in bytes."""
        return int(self._array.itemsize)

    @property
    def size(self) -> int:
        """Number of elements."""
        return int(self._array.size)

    @property
    def nbytes(self) -> int:
        """Total size in bytes."""
        return int(self._array.nbytes)

    # ------------------------------------------------------------------
    def _check_index(self, index: tuple[int, ...] | int) -> tuple[int, ...]:
        if isinstance(index, (int, np.integer)):
            index = (int(index),)
        else:
            index = tuple(int(i) for i in index)
        if len(index) != self._array.ndim:
            raise BufferOutOfBoundsError(
                f"buffer {self.name!r}: index rank {len(index)} does not match "
                f"buffer rank {self._array.ndim}"
            )
        for dim, (i, n) in enumerate(zip(index, self._array.shape)):
            if not 0 <= i < n:
                raise BufferOutOfBoundsError(
                    f"buffer {self.name!r}: index {index} out of bounds for shape "
                    f"{self._array.shape} (dimension {dim})"
                )
        return index

    def read(self, index) -> float:
        """Bounds-checked, counted element read."""
        idx = self._check_index(index)
        self.counters.reads += 1
        return self._array[idx]

    def write(self, index, value) -> None:
        """Bounds-checked, counted element write."""
        idx = self._check_index(index)
        self.counters.writes += 1
        self._array[idx] = value

    def read_clamped(self, index) -> float:
        """Read with indices clamped to the valid range (CLK_ADDRESS_CLAMP_TO_EDGE)."""
        if isinstance(index, (int, np.integer)):
            index = (int(index),)
        idx = tuple(
            min(max(int(i), 0), n - 1) for i, n in zip(index, self._array.shape)
        )
        self.counters.reads += 1
        return self._array[idx]

    # ------------------------------------------------------------------
    def record_reads(self, count: int) -> None:
        """Record ``count`` element reads performed through :attr:`array`."""
        self.counters.reads += int(count)

    def record_writes(self, count: int) -> None:
        """Record ``count`` element writes performed through :attr:`array`."""
        self.counters.writes += int(count)

    def reset_counters(self) -> None:
        self.counters.reset()

    def copy_array(self) -> np.ndarray:
        """Return a copy of the backing array."""
        return np.array(self._array, copy=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Buffer(name={self.name!r}, shape={self.shape}, dtype={self.dtype}, "
            f"reads={self.counters.reads}, writes={self.counters.writes})"
        )


class SegmentedBuffer(Buffer):
    """A buffer holding ``batch`` equally sized request segments back to back.

    Batched kernel launches (:meth:`repro.clsim.executor.Executor.run_batch`)
    stack the per-request buffers of several compatible launches into one
    contiguous array; request ``r`` owns elements
    ``[r * segment_elements, (r + 1) * segment_elements)``.  Execution
    backends that support batching add a per-lane segment base offset to
    every index, so each request only ever addresses its own segment.
    """

    def __init__(
        self, array: np.ndarray, name: str, segment_elements: int, batch: int
    ) -> None:
        super().__init__(array, name=name)
        if segment_elements <= 0 or batch <= 0:
            raise BufferSizeError(
                f"segmented buffer {name!r} needs positive segment/batch, got "
                f"{segment_elements}/{batch}"
            )
        if self.size != segment_elements * batch:
            raise BufferSizeError(
                f"segmented buffer {name!r} has {self.size} elements, expected "
                f"{segment_elements} x {batch}"
            )
        self.segment_elements = int(segment_elements)
        self.batch = int(batch)

    def segment(self, index: int) -> np.ndarray:
        """Flat view of one request's segment."""
        if not 0 <= index < self.batch:
            raise BufferOutOfBoundsError(
                f"segmented buffer {self.name!r}: segment {index} out of range "
                f"[0, {self.batch})"
            )
        n = self.segment_elements
        return self.array.reshape(-1)[index * n : (index + 1) * n]


class LocalMemory:
    """Per-work-group local (LDS / shared) memory.

    A :class:`LocalMemory` instance is created per work group by the
    executor.  Allocations are named 2D/1D tiles; the total allocation is
    checked against the device's per-CU local memory budget.
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bytes = int(capacity_bytes)
        self._tiles: dict[str, np.ndarray] = {}
        self.counters = AccessCounters()

    # ------------------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return sum(int(t.nbytes) for t in self._tiles.values())

    def allocate(self, name: str, shape: Iterable[int], dtype=np.float32) -> np.ndarray:
        """Allocate (or return an existing) named tile of local memory."""
        if name in self._tiles:
            return self._tiles[name]
        tile = np.zeros(tuple(int(s) for s in shape), dtype=dtype)
        if self.allocated_bytes + tile.nbytes > self.capacity_bytes:
            raise LocalMemoryExceededError(
                f"local allocation {name!r} of {tile.nbytes} B exceeds remaining "
                f"capacity ({self.capacity_bytes - self.allocated_bytes} B of "
                f"{self.capacity_bytes} B)"
            )
        self._tiles[name] = tile
        return tile

    def tile(self, name: str) -> np.ndarray:
        """Return a previously allocated tile."""
        return self._tiles[name]

    def has_tile(self, name: str) -> bool:
        return name in self._tiles

    # ------------------------------------------------------------------
    def read(self, name: str, index) -> float:
        """Counted element read from a tile."""
        tile = self._tiles[name]
        self.counters.reads += 1
        return tile[tuple(int(i) for i in np.atleast_1d(index))]

    def write(self, name: str, index, value) -> None:
        """Counted element write to a tile."""
        tile = self._tiles[name]
        self.counters.writes += 1
        tile[tuple(int(i) for i in np.atleast_1d(index))] = value

    def record_reads(self, count: int) -> None:
        self.counters.reads += int(count)

    def record_writes(self, count: int) -> None:
        self.counters.writes += int(count)

    def reset(self) -> None:
        """Clear all tiles and counters (reuse between work groups)."""
        self._tiles.clear()
        self.counters.reset()


@dataclass
class PrivateMemory:
    """Per-work-item private memory (registers / scratch).

    Only the access count matters for the timing model; values live in a
    plain dict keyed by variable name.
    """

    values: dict[str, object] = field(default_factory=dict)
    counters: AccessCounters = field(default_factory=AccessCounters)

    def store(self, name: str, value) -> None:
        self.counters.writes += 1
        self.values[name] = value

    def load(self, name: str):
        self.counters.reads += 1
        return self.values[name]

    def __contains__(self, name: str) -> bool:
        return name in self.values


def transactions_for_row_segment(
    num_elements: int, itemsize: int, transaction_bytes: int
) -> int:
    """Number of memory transactions needed for ``num_elements`` contiguous
    elements of ``itemsize`` bytes, with a transaction granularity of
    ``transaction_bytes``.

    This is the fundamental coalescing quantity used throughout the timing
    model: a row-contiguous segment of N elements costs
    ``ceil(N * itemsize / transaction_bytes)`` transactions, and every
    transaction moves a full ``transaction_bytes`` regardless of how many of
    its bytes are useful.
    """
    if num_elements <= 0:
        return 0
    bytes_needed = num_elements * itemsize
    return (bytes_needed + transaction_bytes - 1) // transaction_bytes
