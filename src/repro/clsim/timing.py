"""Analytical kernel timing model.

The paper's speedups come from one mechanism: perforation reduces the
number of bytes a kernel moves across the global-memory interface, and the
reconstruction work it adds instead runs out of fast local memory.  The
timing model therefore estimates kernel runtime from a *traffic profile*:

* DRAM traffic, expressed as contiguous row segments per work group so that
  coalescing (transaction granularity) is modelled faithfully;
* cache traffic for repeated accesses to data already resident on-chip;
* local-memory (LDS) traffic;
* arithmetic work (ALU / special-function ops) per work-item;
* synchronisation (barriers) and occupancy limits from local-memory usage.

The model is a bandwidth/roofline model: kernel time is the launch overhead
plus the maximum of the compute time and the memory time (DRAM, cache and
LDS pipelines modelled separately), with a penalty when occupancy is too
low to hide DRAM latency.  Absolute times are approximate; *relative* times
between the accurate kernel, the perforated kernels and the Paraprox
baselines — which is what the paper's figures report — follow directly from
the traffic ratios.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .device import Device
from .errors import LocalMemoryExceededError
from .memory import transactions_for_row_segment
from .ndrange import NDRange

#: Fraction of peak DRAM bandwidth typically achievable by a well-coalesced
#: streaming kernel.  Keeps absolute numbers in a realistic range.
ACHIEVABLE_BANDWIDTH_FRACTION = 0.75

#: Relative cost of a special-function (transcendental) op vs. a MAD.
SFU_COST_FACTOR = 4.0

#: Cycles charged per work-group barrier (per wavefront).
BARRIER_CYCLES = 32.0

#: Occupancy (fraction of max resident wavefronts) needed to fully hide
#: DRAM latency.  Below this, DRAM time is inflated.
LATENCY_HIDING_OCCUPANCY = 0.25

#: Cost of a private-memory (register/scratch) access relative to an ALU op.
PRIVATE_ACCESS_OP_COST = 0.5

#: Fraction of the device's maximum resident wavefronts that realistically
#: contribute to hiding the latency of global load instructions (register
#: pressure and issue limits keep real kernels below the architectural
#: maximum).  The exposed-latency term this factor controls is what makes
#: kernels with many global loads per work-item (Sobel5: 25, Gaussian: 9)
#: profit so much from serving those loads out of local memory — the
#: effect behind the paper's 1.6x-3x speedups.
LATENCY_HIDING_WAVE_FRACTION = 0.6


class AccessPattern(str, enum.Enum):
    """How the work-items of a work group touch a global buffer."""

    #: Adjacent work-items read adjacent elements of the same row.
    ROW_CONTIGUOUS = "row-contiguous"
    #: Accesses stride through memory; each element needs its own transaction.
    STRIDED = "strided"
    #: All work-items of a group read the same element(s).
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class GlobalTraffic:
    """DRAM traffic of one buffer access site, per work group.

    Attributes
    ----------
    buffer:
        Name of the buffer (for reporting).
    segments_per_group:
        Number of contiguous row segments each work group touches in DRAM.
    segment_elements:
        Elements per contiguous segment.
    element_bytes:
        Size of one element.
    pattern:
        Coalescing pattern of the access.
    is_store:
        Whether this is a write (stores and loads share bandwidth here).
    cached_accesses_per_group:
        Additional element accesses that hit in cache (data already fetched
        by this or a neighbouring work-item); they cost cache bandwidth,
        not DRAM bandwidth.
    """

    buffer: str
    segments_per_group: float
    segment_elements: float
    element_bytes: int = 4
    pattern: AccessPattern = AccessPattern.ROW_CONTIGUOUS
    is_store: bool = False
    cached_accesses_per_group: float = 0.0

    def elements_per_group(self) -> float:
        """Unique elements moved from/to DRAM per work group."""
        return self.segments_per_group * self.segment_elements

    def bytes_per_group(self) -> float:
        """Useful DRAM bytes per work group (excluding over-fetch)."""
        return self.elements_per_group() * self.element_bytes

    def transactions_per_group(self, transaction_bytes: int) -> float:
        """DRAM transactions per work group, including coalescing over-fetch."""
        if self.segments_per_group <= 0 or self.segment_elements <= 0:
            return 0.0
        if self.pattern is AccessPattern.BROADCAST:
            return 1.0
        if self.pattern is AccessPattern.STRIDED:
            # Every element lands in its own transaction.
            return self.segments_per_group * math.ceil(self.segment_elements)
        per_segment = transactions_for_row_segment(
            int(math.ceil(self.segment_elements)),
            self.element_bytes,
            transaction_bytes,
        )
        return self.segments_per_group * per_segment

    def fetched_bytes_per_group(self, transaction_bytes: int) -> float:
        """Bytes actually moved per work group (transactions x granularity)."""
        return self.transactions_per_group(transaction_bytes) * transaction_bytes

    def coalescing_efficiency(self, transaction_bytes: int) -> float:
        """Useful bytes / fetched bytes (1.0 = perfectly coalesced)."""
        fetched = self.fetched_bytes_per_group(transaction_bytes)
        if fetched <= 0:
            return 1.0
        return min(1.0, self.bytes_per_group() / fetched)


@dataclass(frozen=True)
class KernelProfile:
    """Per-launch cost profile of a kernel.

    All ``*_per_item`` quantities are averages over work-items; all
    ``*_per_group`` quantities are per work group.  Profiles come from
    :meth:`repro.apps.base.Application.profile` (and
    :func:`repro.baselines.paraprox.paraprox_profile` for the Paraprox
    baseline, which has no kernel here); ``tests/apps/test_profile_conformance.py``
    pins the application profiles to the counters of the simulated kernels.
    """

    name: str
    traffic: tuple[GlobalTraffic, ...] = ()
    flops_per_item: float = 0.0
    int_ops_per_item: float = 0.0
    sfu_ops_per_item: float = 0.0
    private_accesses_per_item: float = 0.0
    local_reads_per_item: float = 0.0
    local_writes_per_item: float = 0.0
    barriers_per_group: float = 0.0
    local_mem_bytes_per_group: float = 0.0
    divergence_factor: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "traffic", tuple(self.traffic))
        if self.divergence_factor < 1.0:
            raise ValueError("divergence_factor must be >= 1.0")

    def total_ops_per_item(self) -> float:
        """Aggregate ALU work per item (flops + int ops + private accesses)."""
        return (
            self.flops_per_item
            + self.int_ops_per_item
            + self.private_accesses_per_item * PRIVATE_ACCESS_OP_COST
        )


@dataclass(frozen=True)
class TimingBreakdown:
    """Estimated execution time of one kernel launch, with its components."""

    kernel_name: str
    device_name: str
    total_time_s: float
    compute_time_s: float
    dram_time_s: float
    cache_time_s: float
    local_time_s: float
    latency_time_s: float
    barrier_time_s: float
    launch_overhead_s: float
    dram_bytes: float
    dram_transactions: float
    useful_dram_bytes: float
    local_bytes: float
    global_load_instructions: float
    occupancy: float
    coalescing_efficiency: float

    @property
    def bound(self) -> str:
        """Which resource dominates: 'compute', 'dram', 'latency' or 'local'."""
        components = {
            "compute": self.compute_time_s,
            "dram": self.dram_time_s,
            "latency": self.latency_time_s,
            "local": self.local_time_s + self.cache_time_s,
        }
        return max(components, key=components.get)

    def describe(self) -> str:
        """Multi-line human-readable description."""
        return "\n".join(
            [
                f"Kernel {self.kernel_name} on {self.device_name}",
                f"  total time      : {self.total_time_s * 1e3:.3f} ms ({self.bound}-bound)",
                f"  compute         : {self.compute_time_s * 1e3:.3f} ms",
                f"  DRAM            : {self.dram_time_s * 1e3:.3f} ms"
                f" ({self.dram_bytes / 1e6:.2f} MB, eff {self.coalescing_efficiency:.2f})",
                f"  load latency    : {self.latency_time_s * 1e3:.3f} ms"
                f" ({self.global_load_instructions / 1e6:.2f} M loads)",
                f"  cache           : {self.cache_time_s * 1e3:.3f} ms",
                f"  local memory    : {self.local_time_s * 1e3:.3f} ms",
                f"  barriers        : {self.barrier_time_s * 1e3:.3f} ms",
                f"  occupancy       : {self.occupancy:.2f}",
            ]
        )


class TimingModel:
    """Analytical timing model for kernels launched on a :class:`Device`."""

    def __init__(self, device: Device) -> None:
        self.device = device

    # ------------------------------------------------------------------
    def occupancy(self, profile: KernelProfile, ndrange: NDRange) -> float:
        """Fraction of the device's maximum resident wavefronts achieved.

        Occupancy is limited by local-memory usage per work group (the main
        limiter relevant to the paper's kernels) and by the number of work
        groups available to fill the device.
        """
        device = self.device
        waves_per_group = ndrange.waves_per_group(device)
        if profile.local_mem_bytes_per_group > device.local_mem_per_cu:
            raise LocalMemoryExceededError(
                f"kernel {profile.name!r} needs {profile.local_mem_bytes_per_group:.0f} B of "
                f"local memory per group but the device has {device.local_mem_per_cu} B per CU"
            )
        if profile.local_mem_bytes_per_group > 0:
            groups_per_cu = int(
                device.local_mem_per_cu // profile.local_mem_bytes_per_group
            )
            groups_per_cu = max(1, groups_per_cu)
        else:
            groups_per_cu = device.max_waves_per_cu
        waves_per_cu = min(device.max_waves_per_cu, groups_per_cu * waves_per_group)
        # A grid with too few groups cannot fill the device either.
        total_waves = ndrange.total_groups * waves_per_group
        waves_per_cu = min(waves_per_cu, max(1, total_waves // device.compute_units))
        return min(1.0, waves_per_cu / device.max_waves_per_cu)

    # ------------------------------------------------------------------
    def estimate(self, profile: KernelProfile, ndrange: NDRange) -> TimingBreakdown:
        """Estimate the runtime of one launch of ``profile`` over ``ndrange``."""
        device = self.device
        ndrange.validate_for_device(device)

        groups = ndrange.total_groups
        items = ndrange.total_work_items

        # --- DRAM traffic -------------------------------------------------
        dram_transactions = 0.0
        useful_bytes = 0.0
        cached_accesses = 0.0
        load_elements_per_group = 0.0
        for traffic in profile.traffic:
            dram_transactions += traffic.transactions_per_group(device.transaction_bytes)
            useful_bytes += traffic.bytes_per_group()
            cached_accesses += traffic.cached_accesses_per_group * traffic.element_bytes
            if not traffic.is_store:
                load_elements_per_group += (
                    traffic.elements_per_group() + traffic.cached_accesses_per_group
                )
        dram_transactions *= groups
        useful_bytes *= groups
        cached_bytes = cached_accesses * groups
        dram_bytes = dram_transactions * device.transaction_bytes
        achievable_bw = device.global_bandwidth_bytes_per_s * ACHIEVABLE_BANDWIDTH_FRACTION
        dram_time = dram_bytes / achievable_bw if dram_bytes else 0.0
        coalescing = useful_bytes / dram_bytes if dram_bytes else 1.0

        # --- occupancy & latency hiding ----------------------------------
        occ = self.occupancy(profile, ndrange)
        if dram_time > 0 and occ < LATENCY_HIDING_OCCUPANCY:
            dram_time *= LATENCY_HIDING_OCCUPANCY / max(occ, 1e-6)

        # --- exposed global-load latency ----------------------------------
        # Every global load instruction pays the DRAM latency; resident
        # wavefronts hide part of it.  Kernels that read many elements per
        # work-item from global memory (stencils without local staging) are
        # bound by this term, which is precisely the cost local-memory
        # prefetching and perforation remove.
        global_load_instructions = load_elements_per_group * groups
        hiding_lanes = (
            device.compute_units
            * device.wavefront_size
            * max(1.0, device.max_waves_per_cu * LATENCY_HIDING_WAVE_FRACTION * occ)
        )
        latency_time = (
            global_load_instructions
            * device.global_latency_cycles
            / hiding_lanes
            * device.cycle_time_s
            if global_load_instructions
            else 0.0
        )

        # --- on-chip memory ------------------------------------------------
        cache_bw = device.local_bandwidth_bytes_per_s
        cache_time = cached_bytes / cache_bw if cached_bytes else 0.0
        local_bytes = (
            (profile.local_reads_per_item + profile.local_writes_per_item) * 4.0 * items
        )
        local_time = local_bytes / device.local_bandwidth_bytes_per_s if local_bytes else 0.0

        # --- compute -------------------------------------------------------
        alu_ops = profile.total_ops_per_item() * items * profile.divergence_factor
        sfu_ops = profile.sfu_ops_per_item * items * profile.divergence_factor
        compute_time = alu_ops / device.peak_flops if alu_ops else 0.0
        compute_time += (sfu_ops * SFU_COST_FACTOR) / device.peak_flops if sfu_ops else 0.0

        # --- synchronisation -----------------------------------------------
        # Barriers cost issue slots in every wavefront of the group; groups
        # resident on other compute units (and other wavefronts of the same
        # CU) keep executing, so the cost is spread over the device's
        # resident parallelism rather than serialised per compute unit.
        waves_per_group = ndrange.waves_per_group(device)
        barrier_cycles = (
            profile.barriers_per_group * groups * waves_per_group * BARRIER_CYCLES
        )
        resident_waves = device.compute_units * max(1.0, device.max_waves_per_cu * occ)
        barrier_time = (
            barrier_cycles / resident_waves * device.cycle_time_s
            if barrier_cycles
            else 0.0
        )

        launch = device.kernel_launch_overhead_us * 1e-6
        onchip_time = cache_time + local_time
        total = (
            launch
            + max(compute_time, dram_time, onchip_time, latency_time)
            + barrier_time
        )

        return TimingBreakdown(
            kernel_name=profile.name,
            device_name=device.name,
            total_time_s=total,
            compute_time_s=compute_time,
            dram_time_s=dram_time,
            cache_time_s=cache_time,
            local_time_s=local_time,
            latency_time_s=latency_time,
            barrier_time_s=barrier_time,
            launch_overhead_s=launch,
            dram_bytes=dram_bytes,
            dram_transactions=dram_transactions,
            useful_dram_bytes=useful_bytes,
            local_bytes=local_bytes,
            global_load_instructions=global_load_instructions,
            occupancy=occ,
            coalescing_efficiency=coalescing,
        )

    # ------------------------------------------------------------------
    def compare(
        self, baseline: tuple[KernelProfile, NDRange], candidate: tuple[KernelProfile, NDRange]
    ) -> float:
        """Speedup of ``candidate`` over ``baseline`` (>1 means faster)."""
        base_time = self.estimate(*baseline).total_time_s
        cand_time = self.estimate(*candidate).total_time_s
        return base_time / cand_time


def tile_traffic(
    buffer: str,
    tile_x: int,
    tile_y: int,
    halo: int = 0,
    element_bytes: int = 4,
    rows_loaded_fraction: float = 1.0,
    include_halo: bool = True,
    is_store: bool = False,
    cached_accesses_per_group: float = 0.0,
) -> GlobalTraffic:
    """Traffic of a 2D work-group tile load/store.

    A work group covering a ``tile_x`` x ``tile_y`` output region that
    stages its input in local memory loads a ``(tile_x + 2*halo) x
    (tile_y + 2*halo)`` region from DRAM (``include_halo=True``) or just
    the core tile (``include_halo=False`` — the paper's stencil perforation
    scheme).  ``rows_loaded_fraction`` models row perforation: only that
    fraction of the tile's rows is fetched.

    Each fetched row is one contiguous segment, so the x-extent of the work
    group determines coalescing efficiency — exactly the effect Figure 9 of
    the paper studies.
    """
    width = tile_x + (2 * halo if include_halo else 0)
    height = tile_y + (2 * halo if include_halo else 0)
    rows = height * rows_loaded_fraction
    return GlobalTraffic(
        buffer=buffer,
        segments_per_group=rows,
        segment_elements=width,
        element_bytes=element_bytes,
        pattern=AccessPattern.ROW_CONTIGUOUS,
        is_store=is_store,
        cached_accesses_per_group=cached_accesses_per_group,
    )


def per_item_traffic(
    buffer: str,
    tile_x: int,
    tile_y: int,
    elements_per_item: float,
    halo: int = 0,
    element_bytes: int = 4,
    is_store: bool = False,
) -> GlobalTraffic:
    """Traffic of a kernel that reads ``elements_per_item`` values per
    work-item directly from global memory (no local staging).

    The unique DRAM footprint per group is the tile plus its halo (served
    once thanks to the cache); the remaining accesses hit in cache.
    """
    width = tile_x + 2 * halo
    height = tile_y + 2 * halo
    unique = width * height
    total_accesses = elements_per_item * tile_x * tile_y
    cached = max(0.0, total_accesses - unique)
    return GlobalTraffic(
        buffer=buffer,
        segments_per_group=height,
        segment_elements=width,
        element_bytes=element_bytes,
        pattern=AccessPattern.ROW_CONTIGUOUS,
        is_store=is_store,
        cached_accesses_per_group=cached,
    )
