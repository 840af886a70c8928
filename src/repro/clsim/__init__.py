"""``repro.clsim`` — an OpenCL-like GPU simulator.

The simulator has two independent halves:

* a **functional executor** (:class:`Executor`) that runs per-work-item
  kernel bodies with work groups, barriers, global buffers, local and
  private memory, with access counters (:class:`ExecutionStats`) — used
  to validate that perforated kernels compute what we claim they compute;
  and
* an **analytical timing model** (:class:`TimingModel`) that estimates
  kernel runtimes from traffic profiles (DRAM transactions with coalescing,
  cache and LDS traffic, ALU work, occupancy) — used to reproduce the
  paper's speedup numbers.

The default device profile approximates the AMD FirePro W5100 used in the
paper's evaluation.
"""

from .backends import (
    DEFAULT_BACKEND,
    EXECUTION_BACKENDS,
    ExecutionBackend,
    InterpreterBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from .device import (
    Device,
    available_devices,
    firepro_w5100,
    generic_hbm_gpu,
    get_device,
    low_bandwidth_igpu,
)
from .errors import (
    BarrierDivergenceError,
    BufferOutOfBoundsError,
    BufferSizeError,
    ClSimError,
    InvalidBackendError,
    InvalidDeviceError,
    InvalidNDRangeError,
    InvalidWorkGroupSizeError,
    KernelArgumentError,
    KernelExecutionError,
    LocalMemoryExceededError,
)
from .executor import ExecutionStats, Executor
from .kernel import BARRIER, Kernel, KernelContext
from .memory import (
    AccessCounters,
    AddressSpace,
    Buffer,
    LocalMemory,
    PrivateMemory,
    transactions_for_row_segment,
)
from .ndrange import NDRange, WorkItemId, ndrange_2d
from .timing import (
    AccessPattern,
    GlobalTraffic,
    KernelProfile,
    TimingBreakdown,
    TimingModel,
    per_item_traffic,
    tile_traffic,
)

__all__ = [
    "InvalidBackendError",
    "resolve_backend",
    "register_backend",
    "get_backend",
    "available_backends",
    "InterpreterBackend",
    "ExecutionBackend",
    "EXECUTION_BACKENDS",
    "DEFAULT_BACKEND",
    "AccessCounters",
    "AccessPattern",
    "AddressSpace",
    "BARRIER",
    "BarrierDivergenceError",
    "Buffer",
    "BufferOutOfBoundsError",
    "BufferSizeError",
    "ClSimError",
    "Device",
    "ExecutionStats",
    "Executor",
    "GlobalTraffic",
    "InvalidDeviceError",
    "InvalidNDRangeError",
    "InvalidWorkGroupSizeError",
    "Kernel",
    "KernelArgumentError",
    "KernelContext",
    "KernelExecutionError",
    "KernelProfile",
    "LocalMemory",
    "LocalMemoryExceededError",
    "NDRange",
    "PrivateMemory",
    "TimingBreakdown",
    "TimingModel",
    "WorkItemId",
    "available_devices",
    "firepro_w5100",
    "generic_hbm_gpu",
    "get_device",
    "low_bandwidth_igpu",
    "ndrange_2d",
    "per_item_traffic",
    "tile_traffic",
    "transactions_for_row_segment",
]
