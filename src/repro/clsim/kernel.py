"""Kernel objects for the functional executor.

A :class:`Kernel` wraps a Python callable that implements the per-work-item
body of an OpenCL-style kernel.  The callable receives a
:class:`KernelContext` (kernel arguments, local memory, private memory) and
a :class:`~repro.clsim.ndrange.WorkItemId`.  Work-group barriers are
expressed by writing the body as a *generator* that ``yield``s
:data:`BARRIER`; the executor advances all work-items of a group in
lock-step between barriers, which reproduces OpenCL barrier semantics.

Kernels can optionally carry a :class:`~repro.clsim.timing.KernelProfile`
factory so that launching them through a :class:`~repro.clsim.queue.CommandQueue`
also produces a timing estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .errors import KernelArgumentError
from .memory import Buffer, LocalMemory, PrivateMemory
from .ndrange import NDRange, WorkItemId
from .timing import KernelProfile

#: Sentinel yielded by kernel bodies to indicate a work-group barrier.
BARRIER = "barrier"


@dataclass
class KernelContext:
    """Execution context shared by the work-items of one work group."""

    args: dict[str, object]
    local: LocalMemory
    ndrange: NDRange
    group_id: tuple[int, ...]
    private: dict[tuple[int, ...], PrivateMemory] = field(default_factory=dict)

    def arg(self, name: str):
        """Return the kernel argument bound to ``name``."""
        try:
            return self.args[name]
        except KeyError as exc:
            raise KernelArgumentError(f"kernel has no argument named {name!r}") from exc

    def buffer(self, name: str) -> Buffer:
        """Return the buffer argument bound to ``name``."""
        value = self.arg(name)
        if not isinstance(value, Buffer):
            raise KernelArgumentError(f"argument {name!r} is not a Buffer")
        return value

    def private_memory(self, work_item: WorkItemId) -> PrivateMemory:
        """Return (creating on first use) the private memory of a work-item."""
        key = work_item.local_id
        if key not in self.private:
            self.private[key] = PrivateMemory()
        return self.private[key]

    # Convenience accessors mirroring OpenCL built-ins -------------------
    def get_local_size(self, dim: int = 0) -> int:
        return self.ndrange.local_size[dim]

    def get_global_size(self, dim: int = 0) -> int:
        return self.ndrange.global_size[dim]

    def get_num_groups(self, dim: int = 0) -> int:
        return self.ndrange.num_groups[dim]


#: Type of a kernel body: ``body(ctx, work_item)``.  May be a plain function
#: or a generator function that yields :data:`BARRIER`.
KernelBody = Callable[[KernelContext, WorkItemId], object]


class Kernel:
    """A named kernel with an argument signature and a per-work-item body.

    ``ast_program``/``ast_kernel_name`` optionally carry the kernellang AST
    the kernel was compiled from; execution backends that re-lower the
    kernel (the codegen backend) read them, the executor itself never
    does.
    """

    def __init__(
        self,
        name: str,
        body: KernelBody,
        arg_names: Sequence[str],
        profile_factory: Callable[[NDRange, Mapping[str, object]], KernelProfile] | None = None,
        ast_program: object | None = None,
        ast_kernel_name: str | None = None,
    ) -> None:
        self.name = name
        self.body = body
        self.arg_names = tuple(arg_names)
        self.profile_factory = profile_factory
        self.ast_program = ast_program
        self.ast_kernel_name = ast_kernel_name

    def bind_args(self, args: Mapping[str, object] | Sequence[object]) -> dict[str, object]:
        """Validate and normalise the arguments of a launch.

        ``args`` can be a mapping keyed by argument name or a positional
        sequence in signature order.
        """
        if isinstance(args, Mapping):
            missing = [name for name in self.arg_names if name not in args]
            if missing:
                raise KernelArgumentError(
                    f"kernel {self.name!r} is missing arguments: {missing}"
                )
            extra = [name for name in args if name not in self.arg_names]
            if extra:
                raise KernelArgumentError(
                    f"kernel {self.name!r} got unexpected arguments: {extra}"
                )
            return {name: args[name] for name in self.arg_names}
        values = list(args)
        if len(values) != len(self.arg_names):
            raise KernelArgumentError(
                f"kernel {self.name!r} expects {len(self.arg_names)} arguments, "
                f"got {len(values)}"
            )
        return dict(zip(self.arg_names, values))

    def profile(self, ndrange: NDRange, args: Mapping[str, object]) -> KernelProfile | None:
        """Build the timing profile for a launch, if a factory was supplied."""
        if self.profile_factory is None:
            return None
        return self.profile_factory(ndrange, args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Kernel({self.name!r}, args={self.arg_names})"
