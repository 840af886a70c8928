"""Benchmark-application abstraction.

Every benchmark of the paper's evaluation (Table 1) is an
:class:`Application`: it bundles

* the OpenCL C kernel source (in the :mod:`repro.kernellang` subset) used
  by the compiler path and by the functional-correctness tests;
* a NumPy reference implementation of the accurate kernel;
* a NumPy implementation of the *approximate* kernel built on the input
  samplers from :mod:`repro.core.reconstruction` (semantically equivalent
  to running the perforated kernel, but fast enough for the parameter
  sweeps of the evaluation);
* a traffic/operation profile for the analytical timing model, for the
  accurate baseline as well as every perforation scheme.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from ..clsim.ndrange import NDRange
from ..clsim.timing import (
    AccessPattern,
    GlobalTraffic,
    KernelProfile,
    per_item_traffic,
    tile_traffic,
)
from ..core.config import ApproximationConfig
from ..core.errors import ConfigurationError
from ..core.perforator import KernelPerforator, perforator_for
from ..core.quality import ErrorMetric
from ..core.reconstruction import make_sampler, sampler_key
from ..core.schemes import (
    KIND_COLUMNS,
    KIND_ROWS,
    KIND_STENCIL,
    PerforationScheme,
)


@dataclass(frozen=True)
class InputBufferSpec:
    """Description of one global input buffer of a kernel."""

    name: str
    halo: int
    reads_per_item: float
    perforate: bool = True


class Application(abc.ABC):
    """Base class of the six benchmark applications."""

    #: Short lowercase identifier (``gaussian``, ``sobel5``, ...).
    name: str = "application"
    #: Application domain, as listed in Table 1 of the paper.
    domain: str = ""
    #: Error metric used in the evaluation (Table 1).
    error_metric: ErrorMetric = ErrorMetric.MEAN_RELATIVE_ERROR
    #: Stencil halo of the kernel's input access (0 for 1x1 filters).
    halo: int = 0
    #: Arithmetic work per output element.
    flops_per_item: float = 1.0
    int_ops_per_item: float = 4.0
    sfu_ops_per_item: float = 0.0
    #: Private-memory traffic per output element (Median's median-of-medians).
    private_accesses_per_item: float = 0.0
    #: Whether the accurate baseline already stages its input in local memory
    #: (the paper: true for Gaussian and Median, false for Inversion).
    baseline_uses_local_memory: bool = False
    #: Bytes per input element.
    element_bytes: int = 4
    #: Work-group shape of the accurate baseline (speedups are relative to it).
    baseline_work_group: tuple[int, int] = (16, 16)

    # ------------------------------------------------------------------
    # Abstract interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def kernel_source(self) -> str:
        """OpenCL C source of the accurate kernel."""

    @abc.abstractmethod
    def reference(self, inputs) -> np.ndarray:
        """Accurate output for ``inputs`` (NumPy reference implementation)."""

    @abc.abstractmethod
    def approximate(self, inputs, config: ApproximationConfig) -> np.ndarray:
        """Output of the perforated + reconstructed kernel for ``inputs``.

        Contract: the output may depend on ``config`` only through samplers
        that :func:`~repro.core.reconstruction.make_sampler` builds from
        ``(config.scheme, config.reconstruction, config.work_group)``, with
        halos fixed per application.  Configurations with equal
        :meth:`approximation_key` then give identical outputs, and the
        engine computes one of them per key (:meth:`PerforationEngine.errors
        <repro.api.engine.PerforationEngine.errors>`).
        """

    # ------------------------------------------------------------------
    # Defaults shared by the image-processing applications
    # ------------------------------------------------------------------
    def input_specs(self) -> list[InputBufferSpec]:
        """Input buffers of the kernel (default: a single ``input`` image)."""
        reads = float((2 * self.halo + 1) ** 2)
        return [InputBufferSpec(name="input", halo=self.halo, reads_per_item=reads)]

    def global_size(self, inputs) -> tuple[int, int]:
        """NDRange global size (width, height) for ``inputs``."""
        image = np.asarray(inputs)
        height, width = image.shape[:2]
        return (width, height)

    def approximation_key(self, config: ApproximationConfig) -> tuple:
        """Key under which :meth:`approximate` gives one output per input.

        The default is the :func:`~repro.core.reconstruction.sampler_key` of
        ``config``, which holds for every application that keeps the
        contract of :meth:`approximate`.  An application whose output
        depends on ``config`` in any other way overrides this method (for
        example, to return ``config`` itself).
        """
        return sampler_key(config.scheme, config.reconstruction, *config.work_group)

    def sampler_for(self, image: np.ndarray, config: ApproximationConfig):
        """Approximate input sampler for ``image`` under ``config``."""
        tile_x, tile_y = config.work_group
        return make_sampler(
            image,
            config.scheme,
            config.reconstruction,
            tile_x=tile_x,
            tile_y=tile_y,
            halo=self.halo,
        )

    # ------------------------------------------------------------------
    # Compiler path
    # ------------------------------------------------------------------
    def perforator(self) -> KernelPerforator:
        """Kernel perforator for this application's kernel source, shared
        with every kernel build of it in the process."""
        return perforator_for(self.kernel_source())

    def output_buffer(self, inputs):
        """Zero-initialised output buffer for a compiled-kernel launch."""
        from ..clsim.memory import Buffer

        image = np.asarray(inputs, dtype=np.float64)
        return Buffer(np.zeros_like(image), "output")

    def kernel_args(self, inputs, output) -> dict[str, object]:
        """Argument binding for launching this application's kernel on the
        clsim executor (the compiler path).  ``output`` is the buffer
        returned by :meth:`output_buffer`.  Applications with extra buffers
        or scalar parameters (e.g. Hotspot) override this."""
        from ..clsim.memory import Buffer

        image = np.asarray(inputs, dtype=np.float64)
        height, width = image.shape[:2]
        return {
            "input": Buffer(image, "input"),
            "output": output,
            "width": width,
            "height": height,
        }

    # ------------------------------------------------------------------
    # Timing profiles
    # ------------------------------------------------------------------
    def profile(
        self, config: ApproximationConfig, global_size: tuple[int, int]
    ) -> tuple[KernelProfile, NDRange]:
        """Traffic/operation profile of this kernel under ``config``.

        The profile is what the analytical timing model consumes; it covers
        the accurate baseline (with or without local-memory staging, as the
        paper's baselines do) and every perforation scheme.
        """
        width, height = global_size
        tile_x, tile_y = config.work_group
        if width % tile_x or height % tile_y:
            raise ConfigurationError(
                f"work group {config.work_group} does not divide the global size {global_size}"
            )
        ndrange = NDRange((width, height), (tile_x, tile_y))
        items_per_group = tile_x * tile_y

        traffic: list[GlobalTraffic] = []
        local_reads = 0.0
        local_writes = 0.0
        local_bytes = 0.0
        extra_flops = 0.0
        perforated = 0

        for spec in self.input_specs():
            tile_w = tile_x + 2 * spec.halo
            tile_h = tile_y + 2 * spec.halo
            tile_elements = tile_w * tile_h
            scheme = config.scheme if (spec.perforate and not config.is_accurate) else None
            if scheme is not None and scheme.requires_halo() and spec.halo == 0:
                # The stencil scheme perforates the halo; 1x1-read buffers
                # (e.g. Hotspot's power map) are staged accurately instead.
                scheme = None

            if config.is_accurate and not self.baseline_uses_local_memory:
                # Naive baseline: every read goes through the global path.
                traffic.append(
                    per_item_traffic(
                        spec.name,
                        tile_x,
                        tile_y,
                        elements_per_item=spec.reads_per_item,
                        halo=spec.halo,
                        element_bytes=self.element_bytes,
                    )
                )
                continue

            if scheme is None:
                # Local-memory staging of the full tile (accurate optimised
                # baseline, or a non-perforated buffer of an approximate kernel).
                traffic.append(
                    tile_traffic(
                        spec.name,
                        tile_x,
                        tile_y,
                        halo=spec.halo,
                        element_bytes=self.element_bytes,
                    )
                )
                local_writes += tile_elements / items_per_group
                local_reads += spec.reads_per_item
                local_bytes += tile_elements * self.element_bytes
                continue

            traffic.append(
                self._perforated_traffic(spec, scheme, tile_x, tile_y, tile_w, tile_h)
            )
            loaded_fraction = scheme.loaded_fraction(tile_h, tile_w, spec.halo)
            reconstructed = tile_elements * (1.0 - loaded_fraction)
            tile_reads = reconstructed
            if config.reconstruction == "linear-interpolation":
                extra_flops += 3.0 * reconstructed / items_per_group
                if scheme.kind == KIND_ROWS:
                    # The row kernel blends the fetched rows above and below
                    # a reconstructed element; rows past the last fetched
                    # row have none below and copy the one above.
                    mask = scheme.loaded_mask(tile_h, tile_w, spec.halo)
                    last_loaded = int(np.flatnonzero(mask.any(axis=1))[-1])
                    tile_reads = 2.0 * reconstructed - (tile_h - 1 - last_loaded) * tile_w
            local_writes += tile_elements / items_per_group
            local_reads += spec.reads_per_item + tile_reads / items_per_group
            local_bytes += tile_elements * self.element_bytes
            perforated += 1

        # Staging ends in one barrier; each perforated buffer adds two, after
        # its prefetch and after its reconstruction.  Column schemes have no
        # compiled kernel; their profile assumes one that prefetches and
        # reconstructs every buffer together.
        if config.scheme.kind == KIND_COLUMNS:
            perforated = min(perforated, 1)
        barriers = float(2 * perforated + 1) if local_bytes else 0.0

        traffic.append(
            tile_traffic(
                "output",
                tile_x,
                tile_y,
                halo=0,
                element_bytes=self.element_bytes,
                is_store=True,
            )
        )

        profile = KernelProfile(
            name=f"{self.name}:{config.label}",
            traffic=tuple(traffic),
            flops_per_item=self.flops_per_item + extra_flops,
            int_ops_per_item=self.int_ops_per_item,
            sfu_ops_per_item=self.sfu_ops_per_item,
            private_accesses_per_item=self.private_accesses_per_item,
            local_reads_per_item=local_reads,
            local_writes_per_item=local_writes,
            barriers_per_group=barriers,
            local_mem_bytes_per_group=local_bytes,
        )
        return profile, ndrange

    def _perforated_traffic(
        self,
        spec: InputBufferSpec,
        scheme: PerforationScheme,
        tile_x: int,
        tile_y: int,
        tile_w: int,
        tile_h: int,
    ) -> GlobalTraffic:
        """DRAM traffic of the perforated prefetch of one buffer."""
        kind = scheme.kind
        if kind == KIND_ROWS:
            loaded_rows = math.ceil(tile_h / scheme.step)  # type: ignore[attr-defined]
            return tile_traffic(
                spec.name,
                tile_x,
                tile_y,
                halo=spec.halo,
                element_bytes=self.element_bytes,
                rows_loaded_fraction=loaded_rows / tile_h,
            )
        if kind == KIND_STENCIL:
            if spec.halo == 0:
                raise ConfigurationError(
                    f"{self.name}: the stencil scheme cannot be applied to the "
                    f"1x1 input buffer {spec.name!r}"
                )
            return tile_traffic(
                spec.name,
                tile_x,
                tile_y,
                halo=spec.halo,
                element_bytes=self.element_bytes,
                include_halo=False,
            )
        if kind == KIND_COLUMNS:
            loaded_cols = math.ceil(tile_w / scheme.step)  # type: ignore[attr-defined]
            # Column loads are strided: every element is its own transaction.
            return GlobalTraffic(
                buffer=spec.name,
                segments_per_group=float(tile_h * loaded_cols),
                segment_elements=1.0,
                element_bytes=self.element_bytes,
                pattern=AccessPattern.STRIDED,
            )
        raise ConfigurationError(f"unsupported scheme kind {kind!r}")

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Table 1 style description line."""
        return (
            f"{self.name:<10s} {self.domain:<22s} {self.error_metric.value:<24s} "
            f"filter {2 * self.halo + 1}x{2 * self.halo + 1}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Application {self.name}>"
