"""Compiler-level kernel perforation.

:class:`KernelPerforator` is the automatic version of what the paper's
authors did by hand (and announce as future work in Section 7): it takes
OpenCL C kernel source, analyses its access pattern, and applies the local
prefetch + perforation + reconstruction passes to produce an approximate
kernel — both as executable form (for the :mod:`repro.clsim` simulator) and
as OpenCL C text (for a real GPU).  :func:`build_kernel` does that once per
(kernel source, configuration) pair and process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..clsim.kernel import Kernel
from ..kernellang import ast
from ..kernellang.analysis import AccessPatternInfo, analyze_kernel, reuse_info
from ..kernellang.clgen import generate
from ..kernellang.interpreter import KernelInterpreter
from ..kernellang.parser import parse_program
from ..kernellang.transforms import (
    LINEAR_INTERPOLATION as T_LINEAR,
    NEAREST_NEIGHBOR as T_NEAREST,
    LocalPrefetchPass,
    PassManager,
    PerforationPass,
    ReconstructionPass,
)
from ..kernellang.typecheck import check_program
from .config import ApproximationConfig
from .errors import ConfigurationError
from .reconstruction import LINEAR_INTERPOLATION, NEAREST_NEIGHBOR
from .schemes import KIND_ROWS, KIND_STENCIL

_TECHNIQUE_MAP = {
    NEAREST_NEIGHBOR: T_NEAREST,
    LINEAR_INTERPOLATION: T_LINEAR,
}


@dataclass
class PerforatedKernel:
    """The result of perforating one kernel for one configuration."""

    name: str
    config: ApproximationConfig
    program: ast.Program
    kernel_def: ast.FunctionDef
    notes: list[str] = field(default_factory=list)

    @property
    def source(self) -> str:
        """OpenCL C source of the transformed kernel."""
        return generate(self.program)

    def executable(self) -> Kernel:
        """Executable form for the :mod:`repro.clsim` functional executor."""
        return KernelInterpreter(self.program, self.name).as_clsim_kernel()

    def local_tile_names(self) -> list[str]:
        """Names of the ``__local`` tiles the transformation introduced."""
        names = []
        for node in self.kernel_def.body.walk():
            if isinstance(node, ast.VarDecl) and node.address_space == "local":
                names.append(node.name)
        return names


class KernelPerforator:
    """Applies the paper's transformation to OpenCL C kernel source."""

    def __init__(self, source: str, kernel_name: str | None = None) -> None:
        self.source = source
        self.kernel_name = kernel_name
        program = parse_program(source)
        check_program(program)
        self._kernel_def = program.kernel(kernel_name)
        self.pattern_info: AccessPatternInfo = analyze_kernel(self._kernel_def)

    # ------------------------------------------------------------------
    @property
    def halo(self) -> int:
        """Stencil halo of the kernel's input accesses."""
        return self.pattern_info.max_halo

    @property
    def input_buffers(self) -> list[str]:
        """Global buffers the kernel reads."""
        return sorted(self.pattern_info.input_buffers)

    def reuse_factors(self, tile_x: int, tile_y: int) -> dict[str, float]:
        """Per-buffer data-reuse factor for a given work-group shape."""
        info = reuse_info(self._kernel_def, self.pattern_info)
        return {name: r.reuse_factor(tile_x, tile_y) for name, r in info.items()}

    def accurate(self) -> PerforatedKernel:
        """The untouched kernel, wrapped in the same result type."""
        program = parse_program(self.source)
        return PerforatedKernel(
            name=self._kernel_def.name,
            config=ApproximationConfig(),
            program=program,
            kernel_def=program.kernel(self.kernel_name),
            notes=["accurate kernel (no transformation)"],
        )

    # ------------------------------------------------------------------
    def perforate(
        self,
        config: ApproximationConfig,
        buffers: list[str] | None = None,
    ) -> PerforatedKernel:
        """Produce the perforated kernel for ``config``.

        ``buffers`` limits the transformation to the named input buffers.
        By default every input buffer is staged in local memory and
        perforated — except under the stencil scheme, where buffers without
        a halo (e.g. Hotspot's power map) are staged accurately instead,
        exactly as the NumPy fast path treats them.
        """
        config.validate_for_halo(self.halo)
        if config.is_accurate:
            return self.accurate()

        scheme_kind = config.scheme.kind
        if scheme_kind not in (KIND_ROWS, KIND_STENCIL):
            raise ConfigurationError(
                f"the compiler path supports row and stencil schemes, not {scheme_kind!r} "
                "(use the NumPy fast path for column/random schemes)"
            )
        technique = _TECHNIQUE_MAP[config.reconstruction]

        stage_buffers = buffers
        if buffers is None and scheme_kind == KIND_STENCIL:
            buffers = [
                name
                for name in self.input_buffers
                if self.pattern_info.summary(name).halo > 0
            ]
            if not buffers:
                raise ConfigurationError(
                    "the stencil scheme requires at least one input buffer with a halo"
                )

        program = parse_program(self.source)
        kernel_def = program.kernel(self.kernel_name)
        tile_x, tile_y = config.work_group

        passes = [LocalPrefetchPass(buffers=stage_buffers)]
        if scheme_kind == KIND_ROWS:
            passes.append(PerforationPass("rows", step=config.scheme.step, buffers=buffers))  # type: ignore[attr-defined]
        else:
            passes.append(PerforationPass("stencil", buffers=buffers))
        passes.append(ReconstructionPass(technique, buffers=buffers))

        context = PassManager(passes).run(kernel_def, tile_x, tile_y)
        return PerforatedKernel(
            name=kernel_def.name,
            config=config,
            program=program,
            kernel_def=kernel_def,
            notes=list(context.notes),
        )

    def optimize_with_local_memory(
        self, work_group: tuple[int, int], buffers: list[str] | None = None
    ) -> PerforatedKernel:
        """Apply only the local-memory prefetch (no perforation).

        This is the accurate-but-optimised baseline the paper compares
        against for kernels with data reuse.
        """
        program = parse_program(self.source)
        kernel_def = program.kernel(self.kernel_name)
        tile_x, tile_y = work_group
        context = PassManager([LocalPrefetchPass(buffers=buffers)]).run(
            kernel_def, tile_x, tile_y
        )
        return PerforatedKernel(
            name=kernel_def.name,
            config=ApproximationConfig(work_group=work_group),
            program=program,
            kernel_def=kernel_def,
            notes=list(context.notes),
        )


#: Entry bound of :func:`build_kernel` (distinct kernel/configuration pairs).
BUILD_CACHE_SIZE = 128


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def build_kernel(source: str, config: ApproximationConfig) -> Kernel:
    """Executable kernel of ``source`` under ``config``, built once per process.

    Equal arguments share one kernel, and with it the compiled group
    functions the codegen backend attaches to it; only the on-disk artifact
    store (:mod:`repro.api.artifacts`) outlives the process.
    """
    perforator = KernelPerforator(source)
    perforated = perforator.accurate() if config.is_accurate else perforator.perforate(config)
    return perforated.executable()
