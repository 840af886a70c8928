"""GPU device models.

A :class:`Device` is a purely descriptive object: it captures the
architectural parameters that the analytical timing model
(:mod:`repro.clsim.timing`) needs to estimate kernel runtimes, together
with the capability limits the functional executor enforces (maximum
work-group size, local memory per compute unit, ...).

The default profile, :func:`firepro_w5100`, approximates the AMD FirePro
W5100 used in the paper's evaluation (GCN 1.0 "Bonaire", 12 compute units,
~96 GB/s GDDR5, 64 KiB LDS per CU).  Exact numbers do not matter for the
reproduction — the relative cost of global vs. local memory traffic and the
coalescing granularity are what shape the results — but keeping the profile
close to the real part makes the modelled speedups land in the same range
as the paper's.  :data:`DEVICE_PROFILES` is a plain dict of the built-in
profiles, which :func:`get_device` resolves names through.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidDeviceError

#: Bytes fetched by one global-memory transaction (DRAM burst / cache line).
DEFAULT_TRANSACTION_BYTES = 64


@dataclass(frozen=True)
class Device:
    """An abstract GPU device description.

    Parameters mirror the OpenCL device-info queries plus a handful of
    micro-architectural constants used by the timing model.

    Attributes
    ----------
    name:
        Human-readable device name.
    compute_units:
        Number of compute units (CUs / SMs).
    clock_mhz:
        Core clock in MHz.
    wavefront_size:
        SIMD execution width (wavefront / warp size).
    max_work_group_size:
        Maximum number of work-items per work group.
    local_mem_per_cu:
        Local (LDS / shared) memory per compute unit, in bytes.
    global_mem_bytes:
        Total global memory, in bytes.
    global_bandwidth_gbps:
        Peak global-memory bandwidth in GB/s.
    global_latency_cycles:
        Unloaded global-memory access latency, in core cycles.
    local_latency_cycles:
        Local-memory access latency, in core cycles.
    local_bandwidth_bytes_per_cycle_per_cu:
        LDS bandwidth per compute unit (bytes per cycle).
    alu_ops_per_cycle_per_cu:
        Peak single-precision operations per cycle per compute unit.
    transaction_bytes:
        Global-memory transaction granularity (coalescing segment size).
    lds_banks:
        Number of LDS banks (bank conflicts are modelled coarsely).
    max_waves_per_cu:
        Maximum resident wavefronts per compute unit (occupancy ceiling).
    kernel_launch_overhead_us:
        Fixed host-side launch overhead per kernel, in microseconds.
    """

    name: str
    compute_units: int
    clock_mhz: float
    wavefront_size: int = 64
    max_work_group_size: int = 256
    local_mem_per_cu: int = 64 * 1024
    global_mem_bytes: int = 4 * 1024 ** 3
    global_bandwidth_gbps: float = 96.0
    global_latency_cycles: int = 400
    local_latency_cycles: int = 4
    local_bandwidth_bytes_per_cycle_per_cu: float = 128.0
    alu_ops_per_cycle_per_cu: float = 64.0
    transaction_bytes: int = DEFAULT_TRANSACTION_BYTES
    lds_banks: int = 32
    max_waves_per_cu: int = 40
    kernel_launch_overhead_us: float = 8.0

    def __post_init__(self) -> None:
        if self.compute_units <= 0:
            raise InvalidDeviceError("compute_units must be positive")
        if self.clock_mhz <= 0:
            raise InvalidDeviceError("clock_mhz must be positive")
        if self.wavefront_size <= 0 or self.wavefront_size & (self.wavefront_size - 1):
            raise InvalidDeviceError("wavefront_size must be a positive power of two")
        if self.max_work_group_size <= 0:
            raise InvalidDeviceError("max_work_group_size must be positive")
        if self.local_mem_per_cu <= 0:
            raise InvalidDeviceError("local_mem_per_cu must be positive")
        if self.global_bandwidth_gbps <= 0:
            raise InvalidDeviceError("global_bandwidth_gbps must be positive")
        if self.transaction_bytes <= 0:
            raise InvalidDeviceError("transaction_bytes must be positive")

    # ------------------------------------------------------------------
    # Derived quantities used by the timing model.
    # ------------------------------------------------------------------
    @property
    def clock_hz(self) -> float:
        """Core clock in Hz."""
        return self.clock_mhz * 1e6

    @property
    def cycle_time_s(self) -> float:
        """Duration of one core cycle in seconds."""
        return 1.0 / self.clock_hz

    @property
    def global_bandwidth_bytes_per_s(self) -> float:
        """Peak global bandwidth in bytes/second."""
        return self.global_bandwidth_gbps * 1e9

    @property
    def peak_flops(self) -> float:
        """Peak single-precision operation throughput (ops/second)."""
        return self.alu_ops_per_cycle_per_cu * self.compute_units * self.clock_hz

    @property
    def local_bandwidth_bytes_per_s(self) -> float:
        """Aggregate LDS bandwidth across all compute units (bytes/second)."""
        return (
            self.local_bandwidth_bytes_per_cycle_per_cu
            * self.compute_units
            * self.clock_hz
        )

    def describe(self) -> str:
        """Return a short multi-line description of the device."""
        lines = [
            f"Device: {self.name}",
            f"  compute units      : {self.compute_units}",
            f"  clock              : {self.clock_mhz:.0f} MHz",
            f"  wavefront size     : {self.wavefront_size}",
            f"  max work-group size: {self.max_work_group_size}",
            f"  local mem / CU     : {self.local_mem_per_cu // 1024} KiB",
            f"  global memory      : {self.global_mem_bytes / 1024 ** 3:.1f} GiB",
            f"  global bandwidth   : {self.global_bandwidth_gbps:.0f} GB/s",
            f"  transaction size   : {self.transaction_bytes} B",
        ]
        return "\n".join(lines)


def firepro_w5100() -> Device:
    """Device profile approximating the AMD FirePro W5100 used in the paper."""
    return Device(
        name="AMD FirePro W5100 (simulated)",
        compute_units=12,
        clock_mhz=930.0,
        wavefront_size=64,
        max_work_group_size=256,
        local_mem_per_cu=64 * 1024,
        global_mem_bytes=int(3.5 * 1024 ** 3),
        global_bandwidth_gbps=96.0,
        global_latency_cycles=400,
        local_latency_cycles=4,
        local_bandwidth_bytes_per_cycle_per_cu=128.0,
        alu_ops_per_cycle_per_cu=128.0,
        transaction_bytes=64,
        lds_banks=32,
        max_waves_per_cu=40,
        kernel_launch_overhead_us=8.0,
    )


def generic_hbm_gpu() -> Device:
    """A modern high-bandwidth device profile (for sensitivity studies)."""
    return Device(
        name="Generic HBM GPU (simulated)",
        compute_units=60,
        clock_mhz=1400.0,
        wavefront_size=64,
        max_work_group_size=1024,
        local_mem_per_cu=64 * 1024,
        global_mem_bytes=16 * 1024 ** 3,
        global_bandwidth_gbps=900.0,
        global_latency_cycles=500,
        local_latency_cycles=4,
        local_bandwidth_bytes_per_cycle_per_cu=128.0,
        alu_ops_per_cycle_per_cu=128.0,
        transaction_bytes=64,
        lds_banks=32,
        max_waves_per_cu=40,
        kernel_launch_overhead_us=5.0,
    )


def low_bandwidth_igpu() -> Device:
    """An integrated-GPU-like profile with scarce bandwidth (for ablations)."""
    return Device(
        name="Low-bandwidth iGPU (simulated)",
        compute_units=8,
        clock_mhz=1100.0,
        wavefront_size=32,
        max_work_group_size=256,
        local_mem_per_cu=64 * 1024,
        global_mem_bytes=2 * 1024 ** 3,
        global_bandwidth_gbps=25.6,
        global_latency_cycles=300,
        local_latency_cycles=6,
        local_bandwidth_bytes_per_cycle_per_cu=64.0,
        alu_ops_per_cycle_per_cu=64.0,
        transaction_bytes=64,
        lds_banks=16,
        max_waves_per_cu=32,
        kernel_launch_overhead_us=10.0,
    )


#: The built-in device profiles, keyed by name (``Device`` is frozen, so
#: every engine shares these instances): ``PerforationEngine(device="generic-hbm")``.
DEVICE_PROFILES: dict[str, Device] = {
    "firepro-w5100": firepro_w5100(),
    "generic-hbm": generic_hbm_gpu(),
    "low-bandwidth-igpu": low_bandwidth_igpu(),
}


def available_devices() -> list[str]:
    """Names of the built-in device profiles."""
    return sorted(DEVICE_PROFILES)


def get_device(name: str = "firepro-w5100") -> Device:
    """Look up a built-in device profile by name.

    Raises
    ------
    InvalidDeviceError
        If ``name`` is not a known profile.
    """
    try:
        return DEVICE_PROFILES[name]
    except KeyError:
        raise InvalidDeviceError(
            f"unknown device profile {name!r}; available: {available_devices()}"
        ) from None
