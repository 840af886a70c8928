"""Pluggable execution backends for the functional executor.

The :class:`~repro.clsim.executor.Executor` hands every launch to an
:class:`ExecutionBackend` through one hook, :meth:`ExecutionBackend.run_launch`.
Its default runs the work groups one by one through
:meth:`~ExecutionBackend.run_group`, which per-group backends implement.
Two backends are built in:

* the ``"interpreter"`` backend is the reference implementation — every
  work-item runs as a Python generator, all work-items of a group advance
  in lock-step between barriers; its semantics *define* what a kernel
  computes;
* the ``"codegen"`` backend (:mod:`repro.kernellang.codegen`) is the
  compiled one: it lowers each (kernel source, work-group shape) pair
  once to flat specialized Python/NumPy source through the pass pipeline
  (:mod:`repro.kernellang.passes` — see ``docs/ir.md``), compiled via
  ``compile()``/``exec()`` and kept on the kernel, and overrides the
  launch hook to run every work group of a launch — of every request of
  a batch — in a few stacked vector passes.  Its outputs and
  :class:`~repro.clsim.executor.ExecutionStats` counters are bit-identical
  to the interpreter's, which the cross-backend conformance suite
  (``tests/clsim/test_backend_parity.py``) pins down.  Kernels the
  lowering rejects run on the interpreter instead, decided once per
  launch (:meth:`ExecutionBackend.for_launch`).

:data:`BACKENDS` is a plain dict of the built-in instances (backends hold
no state), which :func:`resolve_backend` resolves names through; any other
backend is passed as an :class:`ExecutionBackend` instance:

.. code-block:: python

    from repro.clsim import Executor
    from repro.api import PerforationEngine

    Executor(backend="codegen")
    PerforationEngine(backend=MyBackend())
"""

from __future__ import annotations

import inspect

from .errors import (
    BarrierDivergenceError,
    InvalidBackendError,
    KernelExecutionError,
    LocalMemoryExceededError,
)
from .kernel import BARRIER, Kernel, KernelContext
from .memory import LocalMemory
from .ndrange import NDRange

#: Name of the backend used when none is selected explicitly.
DEFAULT_BACKEND = "interpreter"


class ExecutionBackend:
    """Strategy that executes the work groups of a kernel launch."""

    #: Name of the backend (informational).
    name: str = "backend"

    #: Whether :meth:`run_launch` executes several compatible launches as
    #: one stacked launch.  Backends without batching support still serve
    #: batched requests — the executor runs the launches one by one.
    supports_batching: bool = False

    def for_launch(self, kernel: Kernel, local_size: tuple[int, ...]) -> "ExecutionBackend":
        """The backend that runs every work group of one launch.

        The executor calls this once per launch, before any work group
        runs, so a backend can resolve per-kernel work (and decline a
        kernel it cannot run) once instead of once per work group.
        """
        return self

    def run_launch(
        self,
        kernel: Kernel,
        ndrange: NDRange,
        args: dict[str, object],
        batch: int,
        stats,
        local_mem_per_cu: int,
    ) -> None:
        """Run every work group of ``batch`` stacked compatible launches.

        ``args`` binds every argument; with ``batch > 1`` each pointer
        argument is a :class:`~repro.clsim.memory.SegmentedBuffer` with
        ``batch`` segments (only on a backend that
        :attr:`supports_batching`).  Accumulates the barriers and the
        local/private access counters into ``stats``
        (:class:`~repro.clsim.executor.ExecutionStats`); the executor owns
        the rest of the bookkeeping.  The default runs one work group at a
        time through :meth:`run_group`, each with fresh local memory of
        ``local_mem_per_cu`` bytes.
        """
        if batch != 1:
            raise KernelExecutionError(
                f"execution backend {self.name!r} does not support batched launches"
            )
        local = LocalMemory(local_mem_per_cu)
        for group_id in ndrange.group_ids():
            local.reset()
            ctx = KernelContext(args=dict(args), local=local, ndrange=ndrange, group_id=group_id)
            stats.barriers += self.run_group(kernel, ctx, ndrange, group_id)
            stats.local_counters.merge(local.counters)
            for private in ctx.private.values():
                stats.private_counters.merge(private.counters)

    def run_group(
        self,
        kernel: Kernel,
        ctx: KernelContext,
        ndrange: NDRange,
        group_id: tuple[int, ...],
    ) -> int:
        """Run all work-items of one group; returns the number of barriers.

        Per-group backends implement this; a backend that overrides
        :meth:`run_launch` need not.
        """
        raise NotImplementedError(f"execution backend {self.name!r} runs no single groups")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class InterpreterBackend(ExecutionBackend):
    """Reference backend: per-work-item generators advanced in lock-step."""

    name = "interpreter"

    def run_group(self, kernel, ctx, ndrange, group_id) -> int:
        work_items = list(ndrange.work_items_in_group(group_id))
        if not inspect.isgeneratorfunction(kernel.body):
            for wi in work_items:
                try:
                    kernel.body(ctx, wi)
                except (KernelExecutionError, LocalMemoryExceededError):
                    raise
                except Exception as exc:  # pragma: no cover - defensive
                    raise KernelExecutionError(
                        f"kernel {kernel.name!r} failed for work-item {wi.global_id}: {exc}"
                    ) from exc
            return 0

        generators = []
        for wi in work_items:
            try:
                generators.append((wi, kernel.body(ctx, wi)))
            except Exception as exc:  # pragma: no cover - defensive
                raise KernelExecutionError(
                    f"kernel {kernel.name!r} failed to start for work-item "
                    f"{wi.global_id}: {exc}"
                ) from exc

        barriers = 0
        active = generators
        while active:
            still_running = []
            finished = []
            for wi, gen in active:
                try:
                    value = next(gen)
                except StopIteration:
                    finished.append((wi, gen))
                    continue
                except LocalMemoryExceededError:
                    raise
                except Exception as exc:
                    raise KernelExecutionError(
                        f"kernel {kernel.name!r} failed for work-item {wi.global_id}: {exc}"
                    ) from exc
                if value is not BARRIER and value != BARRIER:
                    raise KernelExecutionError(
                        f"kernel {kernel.name!r} yielded unexpected value {value!r}; "
                        f"kernels may only yield BARRIER"
                    )
                still_running.append((wi, gen))
            if still_running and finished:
                raise BarrierDivergenceError(
                    f"kernel {kernel.name!r}: work-items of group {group_id} reached "
                    f"different numbers of barriers"
                )
            if still_running:
                barriers += 1
            active = still_running
        return barriers


class CodegenBackend(ExecutionBackend):
    """Compiled backend: kernellang ASTs lowered to specialized NumPy source.

    Each (kernel source, work-group shape) pair is lowered *once* to flat
    Python source (:mod:`repro.kernellang.codegen`), compiled with
    ``compile()``/``exec()`` and kept on the kernel, which
    :func:`repro.core.perforator.build_kernel` shares process-wide, so
    repeated sweeps and serve sessions skip lowering entirely.  A launch
    runs every work group of every request at once, in stacked passes of
    at most :data:`~repro.kernellang.codegen.MAX_PASS_LANES` lanes.
    Outputs and :class:`~repro.clsim.executor.ExecutionStats` counters are
    bit-identical to the interpreter backend (pinned by
    ``tests/clsim/test_backend_parity.py``).

    A launch whose kernel the lowering rejects
    (:class:`~repro.kernellang.codegen.LoweringError`) runs on the
    interpreter backend, the reference semantics; :meth:`for_launch`
    decides that before any lane has run.  Kernels built from hand-written
    Python bodies carry no AST and are rejected.
    """

    name = "codegen"
    supports_batching = True

    def _compiled(self, kernel):
        # Imported lazily: kernellang itself imports repro.clsim.
        from ..kernellang.codegen import codegen_kernel

        if getattr(kernel, "ast_program", None) is None:
            raise KernelExecutionError(
                f"kernel {kernel.name!r} carries no kernellang AST; the "
                f"codegen backend only runs kernels compiled from "
                f"kernellang source (use the 'interpreter' backend)"
            )
        return codegen_kernel(kernel)

    def for_launch(self, kernel, local_size) -> ExecutionBackend:
        from ..kernellang.codegen import LoweringError

        try:
            self._compiled(kernel).function(local_size)
        except LoweringError:
            return InterpreterBackend()
        return self

    def run_launch(self, kernel, ndrange, args, batch, stats, local_mem_per_cu) -> None:
        compiled = self._compiled(kernel)
        try:
            compiled.run(args, ndrange, batch, stats, local_mem_per_cu)
        except (KernelExecutionError, LocalMemoryExceededError):
            raise
        except Exception as exc:
            # Kernel-language errors (out-of-bounds, division by zero), and
            # any unforeseen fault of generated code, keep the executor's
            # error contract (mirrors InterpreterBackend).
            raise KernelExecutionError(f"kernel {kernel.name!r} failed: {exc}") from exc


#: The built-in execution backends, keyed by name: ``Executor(backend="codegen")``.
BACKENDS: dict[str, ExecutionBackend] = {
    "interpreter": InterpreterBackend(),
    "codegen": CodegenBackend(),
}


def available_backends() -> list[str]:
    """Names of the built-in execution backends."""
    return sorted(BACKENDS)


def resolve_backend(backend=None) -> ExecutionBackend:
    """Normalise a backend selection (built-in name, instance or ``None``)."""
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None or isinstance(backend, str):
        name = DEFAULT_BACKEND if backend is None else backend
        try:
            return BACKENDS[name]
        except KeyError:
            raise InvalidBackendError(
                f"unknown execution backend {name!r}; available: {available_backends()}"
            ) from None
    raise InvalidBackendError(
        f"backend must be a built-in name or an ExecutionBackend, got {backend!r}"
    )
