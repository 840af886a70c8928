"""Compiler-pass infrastructure for kernel transformations.

The perforation framework is organised as a short pipeline of passes over a
kernel AST, mirroring how the paper describes the technique (Figure 1b):

1. :class:`~repro.kernellang.transforms.local_prefetch.LocalPrefetchPass`
   stages the kernel's input tile in local memory (the classic GPU
   optimisation the technique builds on);
2. :class:`~repro.kernellang.transforms.perforation.PerforationPass`
   restricts the prefetch to a subset of the tile (data perforation);
3. :class:`~repro.kernellang.transforms.reconstruction.ReconstructionPass`
   fills the skipped tile entries from the fetched ones (data
   reconstruction).

Passes communicate through a :class:`TransformContext` that records the
names of generated variables, the prefetch loops, and the scheme applied,
so later passes can locate and extend what earlier passes produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .. import ast
from ..analysis.access_patterns import AccessPatternInfo, analyze_kernel
from ..errors import TransformError
from ..parser import Parser
from ..lexer import tokenize


def parse_statements(source: str) -> list[ast.Stmt]:
    """Parse a snippet of statements (used by passes to generate code).

    The snippet is wrapped in a dummy function so the regular parser can be
    reused; the resulting statements are returned for splicing into a
    kernel body.
    """
    wrapped = "void __snippet() {\n" + source + "\n}"
    program = Parser(tokenize(wrapped)).parse_program()
    return program.functions[0].body.statements


@dataclass
class BufferPlan:
    """Per-buffer bookkeeping shared between the passes."""

    buffer: str
    halo: int
    tile_w: int
    tile_h: int
    tile_name: str
    lx_name: str
    ly_name: str
    prefetch_loop: Optional[ast.ForStmt] = None
    load_statement: Optional[ast.Stmt] = None
    perforated: bool = False
    scheme_kind: Optional[str] = None
    scheme_step: int = 1


@dataclass
class TransformContext:
    """State threaded through a pass pipeline for one kernel."""

    kernel: ast.FunctionDef
    tile_x: int
    tile_y: int
    pattern_info: AccessPatternInfo
    plans: dict[str, BufferPlan] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def plan_for(self, buffer: str) -> BufferPlan:
        try:
            return self.plans[buffer]
        except KeyError as exc:
            raise TransformError(
                f"no prefetch plan exists for buffer {buffer!r}; run LocalPrefetchPass first"
            ) from exc

    def add_note(self, note: str) -> None:
        self.notes.append(note)


class Pass:
    """Base class of kernel transformation passes."""

    #: Human-readable pass name (subclasses override).
    name = "pass"

    def run(self, context: TransformContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class PassManager:
    """Runs a sequence of passes over a kernel and records what happened."""

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes = list(passes)

    def run(
        self,
        kernel: ast.FunctionDef,
        tile_x: int,
        tile_y: int,
        pattern_info: AccessPatternInfo | None = None,
    ) -> TransformContext:
        """Apply the pipeline to ``kernel`` *in place* and return the context.

        Callers that need to keep the original kernel should pass a clone
        (``kernel.clone()``), and may pass the original's analysis as
        ``pattern_info``: an unmodified clone analyses the same, and the
        passes only read it.
        """
        if pattern_info is None:
            pattern_info = analyze_kernel(kernel)
        context = TransformContext(kernel, tile_x, tile_y, pattern_info)
        for pass_ in self.passes:
            pass_.run(context)
            context.add_note(f"applied {pass_.name}")
        return context
