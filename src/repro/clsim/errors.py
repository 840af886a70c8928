"""Exception hierarchy for the OpenCL-like simulator.

The simulator mirrors the error conditions a real OpenCL runtime would
report (invalid work-group sizes, out-of-bounds buffer accesses, exceeding
the local-memory budget, ...) so that application code and the perforation
passes can be tested against realistic failure modes.
"""

from __future__ import annotations


class ClSimError(Exception):
    """Base class for all simulator errors."""


class InvalidDeviceError(ClSimError):
    """Raised when a device profile is malformed or unknown."""


class InvalidBackendError(ClSimError):
    """Raised when an execution backend is malformed or unknown."""


class InvalidNDRangeError(ClSimError):
    """Raised for malformed NDRange / work-group configurations."""


class InvalidWorkGroupSizeError(InvalidNDRangeError):
    """Raised when a work-group size does not divide the global size or
    exceeds the device limits."""


class BufferError(ClSimError):
    """Base class for buffer-related errors."""


class BufferOutOfBoundsError(BufferError):
    """Raised when a kernel accesses a buffer outside its allocated range."""


class BufferSizeError(BufferError):
    """Raised when a buffer is created with an invalid size."""


class LocalMemoryExceededError(ClSimError):
    """Raised when a kernel requests more local memory than the device has
    per compute unit."""


class KernelArgumentError(ClSimError):
    """Raised when kernel arguments do not match the kernel signature."""


class KernelExecutionError(ClSimError):
    """Raised when a kernel body fails during functional execution."""


class BarrierDivergenceError(KernelExecutionError):
    """Raised when work-items of the same work group reach different numbers
    of barriers (undefined behaviour on real hardware)."""

