"""Functional execution of kernels over an NDRange.

The executor hands each launch to a pluggable
:class:`~repro.clsim.backends.ExecutionBackend` through one hook,
:meth:`~repro.clsim.backends.ExecutionBackend.run_launch`:

* the default ``"interpreter"`` backend runs the work groups one by one,
  advancing every work-item as a Python generator in lock-step between
  barriers (kernel bodies yield :data:`~repro.clsim.kernel.BARRIER` at
  synchronisation points) — the reference execution model;
* the ``"codegen"`` backend lowers each (kernel, work-group shape) pair
  once per process to specialized Python/NumPy source, compiled and kept
  on the kernel, and runs every work group of the launch in a few stacked
  vector passes — bit-identical outputs and access counters, orders of
  magnitude faster.

Either way the executor owns the launch bookkeeping: device validation,
argument binding, stacking a batch of compatible launches into segmented
arenas, and the aggregation of the :class:`ExecutionStats` access
counters (the analytical timing model handles performance separately).
A single launch takes the same path as a batch of one, with no arena
copy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..obs.trace import get_tracer
from .backends import ExecutionBackend, resolve_backend
from .device import Device, firepro_w5100
from .errors import KernelExecutionError
from .kernel import Kernel
from .memory import AccessCounters, Buffer, SegmentedBuffer
from .ndrange import NDRange


@dataclass
class ExecutionStats:
    """Aggregate access statistics of one kernel launch."""

    work_items: int = 0
    work_groups: int = 0
    barriers: int = 0
    global_counters: AccessCounters = field(default_factory=AccessCounters)
    local_counters: AccessCounters = field(default_factory=AccessCounters)
    private_counters: AccessCounters = field(default_factory=AccessCounters)

    @property
    def global_accesses(self) -> int:
        return self.global_counters.total

    @property
    def local_accesses(self) -> int:
        return self.local_counters.total

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another launch's statistics into this one."""
        self.work_items += other.work_items
        self.work_groups += other.work_groups
        self.barriers += other.barriers
        self.global_counters.merge(other.global_counters)
        self.local_counters.merge(other.local_counters)
        self.private_counters.merge(other.private_counters)


class Executor:
    """Runs kernels functionally on a simulated device.

    Parameters
    ----------
    device:
        Device profile to validate launches against (default: the paper's
        FirePro W5100).
    backend:
        Execution backend: a built-in name (``"interpreter"``,
        ``"codegen"``), an :class:`ExecutionBackend`
        instance, or ``None`` for the default interpreter backend.
    """

    def __init__(
        self,
        device: Device | None = None,
        backend: ExecutionBackend | str | None = None,
    ) -> None:
        self.device = device or firepro_w5100()
        self.backend = resolve_backend(backend)

    # ------------------------------------------------------------------
    def run(
        self,
        kernel: Kernel,
        ndrange: NDRange,
        args: Mapping[str, object] | Sequence[object],
    ) -> ExecutionStats:
        """Execute ``kernel`` over ``ndrange`` with the given arguments.

        Buffer contents are updated in place; the returned
        :class:`ExecutionStats` aggregates the memory-access counters of the
        launch (useful for validating traffic profiles against the
        functional execution).
        """
        ndrange.validate_for_device(self.device)
        backend = self.backend.for_launch(kernel, ndrange.local_size)
        return self._launch(kernel, ndrange, [args], backend)

    # ------------------------------------------------------------------
    def run_batch(
        self,
        kernel: Kernel,
        ndrange: NDRange,
        args_batch: Sequence[Mapping[str, object] | Sequence[object]],
    ) -> ExecutionStats:
        """Execute one kernel over several compatible argument bindings.

        All launches share the NDRange; every pointer argument must bind to
        identically shaped (and typed) buffers and every scalar argument to
        identical values across the batch.  On a backend that supports
        batching, the per-request buffers are stacked into
        :class:`~repro.clsim.memory.SegmentedBuffer` arenas and the whole
        batch executes as *one* launch — the lanes of every request run
        together, which amortises the per-operation interpretation
        overhead.  Outputs are written back to the caller's buffers and are
        bit-identical to running the launches one by one; the returned
        :class:`ExecutionStats` equal the *sum* of the individual launches'
        stats.  Backends without batching support fall back to exactly that
        serial loop, as does a batch that
        :meth:`~repro.clsim.backends.ExecutionBackend.for_launch` hands to
        such a backend (the codegen backend's interpreter fallback).
        """
        args_batch = list(args_batch)
        if not args_batch:
            raise KernelExecutionError("run_batch requires at least one launch")
        backend = self.backend
        if len(args_batch) > 1 and backend.supports_batching:
            ndrange.validate_for_device(self.device)
            backend = backend.for_launch(kernel, ndrange.local_size)
        if len(args_batch) == 1 or not backend.supports_batching:
            runner = self if backend is self.backend else Executor(self.device, backend)
            stats = ExecutionStats()
            for args in args_batch:
                stats.merge(runner.run(kernel, ndrange, args))
            return stats
        return self._launch(kernel, ndrange, args_batch, backend)

    # ------------------------------------------------------------------
    def _launch(
        self,
        kernel: Kernel,
        ndrange: NDRange,
        args_batch: list,
        backend: ExecutionBackend,
    ) -> ExecutionStats:
        """One launch of ``len(args_batch)`` requests on ``backend``."""
        tracer = get_tracer()
        start_ns = time.monotonic_ns() if tracer.enabled else 0
        batch = len(args_batch)
        bound_batch = [kernel.bind_args(args) for args in args_batch]
        args = bound_batch[0] if batch == 1 else _stack(bound_batch)

        # Snapshot buffer counters so the stats reflect only this launch.
        buffers = [v for v in args.values() if hasattr(v, "counters")]
        before = [(b, b.counters.reads, b.counters.writes) for b in buffers]
        stats = ExecutionStats(
            work_items=batch * ndrange.total_work_items,
            work_groups=batch * ndrange.total_groups,
        )
        backend.run_launch(kernel, ndrange, args, batch, stats, self.device.local_mem_per_cu)
        for buf, reads0, writes0 in before:
            stats.global_counters.reads += buf.counters.reads - reads0
            stats.global_counters.writes += buf.counters.writes - writes0

        if batch > 1:
            # Scatter every arena segment back into the caller's buffers
            # (only outputs change, but copying all of them is cheap and
            # assumes nothing about which buffers a kernel writes).
            for name, arena in args.items():
                if isinstance(arena, SegmentedBuffer):
                    for index, bound in enumerate(bound_batch):
                        np.copyto(bound[name].array.reshape(-1), arena.segment(index))
        if tracer.enabled:
            attrs = {"batch": batch} if batch > 1 else {}
            tracer.record(
                "clsim.launch" if batch == 1 else "clsim.launch_batch",
                category="launch",
                start_ns=start_ns,
                duration_ns=time.monotonic_ns() - start_ns,
                kernel=kernel.name,
                backend=backend.name,
                **attrs,
                work_items=stats.work_items,
                work_groups=stats.work_groups,
                barriers=stats.barriers,
                global_accesses=stats.global_accesses,
                local_accesses=stats.local_accesses,
            )
        return stats


def _stack(bound_batch: list[dict[str, object]]) -> dict[str, object]:
    """Stack a batch's buffers into segmented arenas; scalars must agree."""
    batch = len(bound_batch)
    first = bound_batch[0]
    stacked: dict[str, object] = {}
    for name, value in first.items():
        if isinstance(value, Buffer):
            for bound in bound_batch[1:]:
                other = bound[name]
                if (
                    not isinstance(other, Buffer)
                    or other.shape != value.shape
                    or other.dtype != value.dtype
                ):
                    raise KernelExecutionError(
                        f"batched launch requires identically shaped/typed "
                        f"buffers for argument {name!r}"
                    )
            arena = np.concatenate([bound[name].array.reshape(-1) for bound in bound_batch])
            stacked[name] = SegmentedBuffer(
                arena, name=name, segment_elements=value.size, batch=batch
            )
        else:
            for bound in bound_batch[1:]:
                if bound[name] != value:
                    raise KernelExecutionError(
                        f"batched launch requires identical scalar values "
                        f"for argument {name!r} "
                        f"({value!r} vs {bound[name]!r})"
                    )
            stacked[name] = value
    return stacked
