"""Detection of stencil-style global memory accesses.

The perforation passes need to know, for every read of a global buffer,
*which neighbourhood* of the work-item's pixel it touches:  a read of the
form ``input[(y + dy) * width + (x + dx)]`` (possibly with ``clamp`` around
the coordinates) is a stencil access with offset ``(dx, dy)``.  The set of
offsets across the kernel gives the stencil's halo, which in turn sizes the
local-memory tile and decides whether the stencil perforation scheme is
applicable.

The detection is a small symbolic analysis: index expressions are evaluated
into a *linear form* over the symbols ``X`` (``get_global_id(0)``), ``Y``
(``get_global_id(1)``), ``W`` (the row stride parameter) and the products
thereof.  For a 2D row-major image access the canonical shape is

    index = Y*W + X + dy*W + dx

so the coefficient of the ``Y*W`` monomial must be 1, the coefficient of
``X`` must be 1, the coefficient of ``W`` is the row offset ``dy`` and the
constant term is the column offset ``dx``.  Constant-trip-count loops
(e.g. ``for (int dy = -1; dy <= 1; dy++)``) are enumerated so that offsets
expressed through loop variables are expanded into the full offset set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .. import ast
from ..builtins import BUILTIN_CONSTANTS
from ..errors import AnalysisError
from ..types import PointerType

#: Symbols of the linear form.
SYM_X = "X"
SYM_Y = "Y"
SYM_W = "W"
SYM_H = "H"

#: A monomial is a sorted tuple of symbol names; the empty tuple is the
#: constant term.
Monomial = tuple[str, ...]


class LinearForm:
    """A (multi-)linear polynomial over the analysis symbols."""

    def __init__(self, terms: Optional[dict[Monomial, float]] = None) -> None:
        self.terms: dict[Monomial, float] = dict(terms or {})

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "LinearForm":
        return cls({(): float(value)} if value else {})

    @classmethod
    def symbol(cls, name: str) -> "LinearForm":
        return cls({(name,): 1.0})

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other: "LinearForm") -> "LinearForm":
        result = dict(self.terms)
        for mono, coeff in other.terms.items():
            result[mono] = result.get(mono, 0.0) + coeff
            if result[mono] == 0:
                del result[mono]
        return LinearForm(result)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + other.negate()

    def negate(self) -> "LinearForm":
        return LinearForm({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "LinearForm") -> "LinearForm":
        result: dict[Monomial, float] = {}
        for mono_a, coeff_a in self.terms.items():
            for mono_b, coeff_b in other.terms.items():
                mono = tuple(sorted(mono_a + mono_b))
                result[mono] = result.get(mono, 0.0) + coeff_a * coeff_b
                if result[mono] == 0:
                    del result[mono]
        return LinearForm(result)

    # -- queries ---------------------------------------------------------
    def coefficient(self, *symbols: str) -> float:
        return self.terms.get(tuple(sorted(symbols)), 0.0)

    @property
    def constant_term(self) -> float:
        return self.terms.get((), 0.0)

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearForm({self.terms})"


@dataclass(frozen=True)
class StencilAccess:
    """One global-buffer read with a resolved 2D offset."""

    buffer: str
    dx: int
    dy: int


@dataclass
class BufferAccessSummary:
    """All stencil reads of one buffer."""

    buffer: str
    offsets: set[tuple[int, int]] = field(default_factory=set)
    reads: int = 0

    @property
    def halo_x(self) -> int:
        return max((abs(dx) for dx, _ in self.offsets), default=0)

    @property
    def halo_y(self) -> int:
        return max((abs(dy) for _, dy in self.offsets), default=0)

    @property
    def halo(self) -> int:
        return max(self.halo_x, self.halo_y)

    @property
    def footprint(self) -> tuple[int, int]:
        """Width and height of the accessed neighbourhood."""
        if not self.offsets:
            return (0, 0)
        xs = [dx for dx, _ in self.offsets]
        ys = [dy for _, dy in self.offsets]
        return (max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)


@dataclass
class AccessPatternInfo:
    """Result of the stencil-access analysis of one kernel."""

    kernel_name: str
    x_var: Optional[str]
    y_var: Optional[str]
    width_param: Optional[str]
    height_param: Optional[str]
    input_buffers: dict[str, BufferAccessSummary] = field(default_factory=dict)
    output_buffers: set[str] = field(default_factory=set)
    accesses: list[StencilAccess] = field(default_factory=list)
    uses_local_memory: bool = False
    uses_private_arrays: bool = False

    @property
    def max_halo(self) -> int:
        return max((s.halo for s in self.input_buffers.values()), default=0)

    def summary(self, buffer: str) -> BufferAccessSummary:
        return self.input_buffers[buffer]


@dataclass(frozen=True)
class _LoopVar:
    """A loop variable with an enumerable constant range."""

    name: str
    values: tuple[int, ...]


class _IndexEvaluator:
    """Evaluates index expressions into :class:`LinearForm`."""

    def __init__(
        self,
        x_var: Optional[str],
        y_var: Optional[str],
        width_param: Optional[str],
        height_param: Optional[str],
        loop_values: dict[str, int],
        scalar_constants: dict[str, float],
        definitions: Optional[dict[str, ast.Expr]] = None,
    ) -> None:
        self.x_var = x_var
        self.y_var = y_var
        self.width_param = width_param
        self.height_param = height_param
        self.loop_values = loop_values
        self.scalar_constants = scalar_constants
        self.definitions = definitions or {}
        self._resolving: set[str] = set()

    def evaluate(self, expr: ast.Expr) -> LinearForm:
        if isinstance(expr, ast.IntLiteral):
            return LinearForm.constant(expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return LinearForm.constant(expr.value)
        if isinstance(expr, ast.Identifier):
            return self._identifier(expr.name)
        if isinstance(expr, ast.UnaryOp):
            inner = self.evaluate(expr.operand)
            if expr.op == "-":
                return inner.negate()
            if expr.op == "+":
                return inner
            raise AnalysisError(f"unsupported unary operator {expr.op!r} in index")
        if isinstance(expr, ast.BinaryOp):
            left = self.evaluate(expr.left)
            right = self.evaluate(expr.right)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                # Allow division by a constant (rare; e.g. halving an index).
                if right.degree() == 0 and right.constant_term != 0:
                    return LinearForm(
                        {m: c / right.constant_term for m, c in left.terms.items()}
                    )
            raise AnalysisError(f"unsupported binary operator {expr.op!r} in index")
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Cast):
            return self.evaluate(expr.expr)
        if isinstance(expr, ast.Ternary):
            # Border-handling ternaries select between a clamped and an
            # unclamped coordinate; both branches have the same linear form
            # in the interior, so analyse the "true" branch.
            return self.evaluate(expr.if_true)
        raise AnalysisError(f"unsupported expression {type(expr).__name__} in index")

    def _identifier(self, name: str) -> LinearForm:
        if name == self.x_var:
            return LinearForm.symbol(SYM_X)
        if name == self.y_var:
            return LinearForm.symbol(SYM_Y)
        if name == self.width_param:
            return LinearForm.symbol(SYM_W)
        if name == self.height_param:
            return LinearForm.symbol(SYM_H)
        if name in self.loop_values:
            return LinearForm.constant(self.loop_values[name])
        if name in self.scalar_constants:
            return LinearForm.constant(self.scalar_constants[name])
        if name in BUILTIN_CONSTANTS:
            return LinearForm.constant(BUILTIN_CONSTANTS[name])
        if name in self.definitions and name not in self._resolving:
            # Forward-substitute single-assignment locals such as
            # ``int xx = clamp(x + dx, 0, width - 1);``.
            self._resolving.add(name)
            try:
                return self.evaluate(self.definitions[name])
            finally:
                self._resolving.discard(name)
        raise AnalysisError(f"index uses variable {name!r} with unknown value")

    def _call(self, call: ast.Call) -> LinearForm:
        if call.name == "get_global_id":
            dim = _const_value(call.args[0])
            return LinearForm.symbol(SYM_X if dim == 0 else SYM_Y)
        if call.name in ("clamp", "min", "max"):
            # Border clamping does not change the interior offset.
            return self.evaluate(call.args[0])
        if call.name in ("mad", "fma"):
            a, b, c = (self.evaluate(arg) for arg in call.args)
            return a * b + c
        raise AnalysisError(f"unsupported call {call.name!r} in index expression")


def _const_value(expr: ast.Expr) -> int:
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        return -_const_value(expr.operand)
    raise AnalysisError("expected a constant expression")


def _find_coordinate_vars(kernel: ast.FunctionDef) -> tuple[Optional[str], Optional[str]]:
    """Find local variables initialised from get_global_id(0)/get_global_id(1)."""
    x_var = y_var = None
    for node in kernel.body.walk():
        if isinstance(node, ast.VarDecl) and isinstance(node.init, ast.Call):
            if node.init.name == "get_global_id" and node.init.args:
                try:
                    dim = _const_value(node.init.args[0])
                except AnalysisError:
                    continue
                if dim == 0 and x_var is None:
                    x_var = node.name
                elif dim == 1 and y_var is None:
                    y_var = node.name
    return x_var, y_var


def _find_dimension_params(kernel: ast.FunctionDef) -> tuple[Optional[str], Optional[str]]:
    """Heuristically identify the width/height scalar parameters.

    The first two scalar integer parameters are taken as (width, height);
    parameters named ``width``/``height`` (or ``w``/``h``, ``cols``/``rows``)
    take precedence.
    """
    scalar_params = [
        p.name
        for p in kernel.params
        if not isinstance(p.param_type, PointerType)
    ]
    width = height = None
    for name in scalar_params:
        lowered = name.lower()
        if width is None and lowered in ("width", "w", "cols", "ncols", "grid_cols"):
            width = name
        if height is None and lowered in ("height", "h", "rows", "nrows", "grid_rows"):
            height = name
    if width is None and scalar_params:
        width = scalar_params[0]
    if height is None and len(scalar_params) > 1:
        height = scalar_params[1]
    return width, height


def _constant_loop_values(stmt: ast.ForStmt) -> Optional[_LoopVar]:
    """If ``stmt`` is a constant-trip-count loop, return its variable and values."""
    if not isinstance(stmt.init, ast.DeclStmt) or len(stmt.init.declarations) != 1:
        return None
    decl = stmt.init.declarations[0]
    if decl.init is None:
        return None
    try:
        start = _const_value(decl.init)
    except AnalysisError:
        return None
    if stmt.condition is None or not isinstance(stmt.condition, ast.BinaryOp):
        return None
    cond = stmt.condition
    if not isinstance(cond.left, ast.Identifier) or cond.left.name != decl.name:
        return None
    try:
        bound = _const_value(cond.right)
    except AnalysisError:
        return None
    step = 1
    if isinstance(stmt.step, ast.UnaryOp) and stmt.step.op == "++":
        step = 1
    elif isinstance(stmt.step, ast.UnaryOp) and stmt.step.op == "--":
        step = -1
    elif isinstance(stmt.step, ast.Assignment) and stmt.step.op == "+=":
        try:
            step = _const_value(stmt.step.value)
        except AnalysisError:
            return None
    else:
        return None
    values: list[int] = []
    current = start
    limit = 10_000
    while limit > 0:
        limit -= 1
        if cond.op == "<" and not current < bound:
            break
        if cond.op == "<=" and not current <= bound:
            break
        if cond.op == ">" and not current > bound:
            break
        if cond.op == ">=" and not current >= bound:
            break
        values.append(current)
        current += step
    if not values or limit == 0:
        return None
    return _LoopVar(decl.name, tuple(values))


def _collect_reads_and_writes(
    kernel: ast.FunctionDef,
) -> tuple[list[tuple[ast.Index, list[_LoopVar]]], set[str], set[str]]:
    """Collect (read Index node, enclosing constant loops) plus written buffer names."""
    global_params = {
        p.name
        for p in kernel.params
        if isinstance(p.param_type, PointerType) and p.param_type.address_space == "global"
    }
    written: set[str] = set()
    reads: list[tuple[ast.Index, list[_LoopVar]]] = []
    write_targets: set[int] = set()

    for node in kernel.body.walk():
        if isinstance(node, ast.Assignment) and isinstance(node.target, ast.Index):
            base = node.target.base
            if isinstance(base, ast.Identifier) and base.name in global_params:
                written.add(base.name)
                write_targets.add(id(node.target))

    def visit(node: ast.Node, loops: list[_LoopVar]) -> None:
        if isinstance(node, ast.ForStmt):
            loop_var = _constant_loop_values(node)
            inner = loops + [loop_var] if loop_var is not None else loops
            if node.init is not None:
                visit(node.init, loops)
            if node.condition is not None:
                visit(node.condition, loops)
            if node.step is not None:
                visit(node.step, loops)
            visit(node.body, inner)
            return
        if isinstance(node, ast.Index):
            base = node.base
            if (
                isinstance(base, ast.Identifier)
                and base.name in global_params
                and id(node) not in write_targets
            ):
                reads.append((node, list(loops)))
        for child in node.children():
            visit(child, loops)

    visit(kernel.body, [])
    return reads, written, global_params


def _scalar_constants(kernel: ast.FunctionDef) -> dict[str, float]:
    """Variables initialised to integer constants (usable in index analysis)."""
    constants: dict[str, float] = {}
    for node in kernel.body.walk():
        if isinstance(node, ast.VarDecl) and node.init is not None:
            try:
                constants[node.name] = _const_value(node.init)
            except AnalysisError:
                continue
    return constants


def _single_assignment_definitions(kernel: ast.FunctionDef) -> dict[str, ast.Expr]:
    """Map locals to their initialiser when they are never reassigned.

    These definitions let the index analysis see through helper variables
    such as ``int xx = clamp(x + dx, 0, width - 1);``.
    """
    definitions: dict[str, ast.Expr] = {}
    reassigned: set[str] = set()
    for node in kernel.body.walk():
        if isinstance(node, ast.VarDecl) and node.init is not None and node.array_size is None:
            definitions[node.name] = node.init
        elif isinstance(node, ast.Assignment) and isinstance(node.target, ast.Identifier):
            reassigned.add(node.target.name)
        elif isinstance(node, ast.UnaryOp) and node.op in ("++", "--"):
            if isinstance(node.operand, ast.Identifier):
                reassigned.add(node.operand.name)
    for name in reassigned:
        definitions.pop(name, None)
    return definitions


def analyze_kernel(kernel: ast.FunctionDef) -> AccessPatternInfo:
    """Analyse the global-memory access pattern of ``kernel``.

    Raises :class:`AnalysisError` when a read of a global buffer cannot be
    expressed as a stencil access (the perforation passes refuse to touch
    such kernels).
    """
    x_var, y_var = _find_coordinate_vars(kernel)
    width_param, height_param = _find_dimension_params(kernel)
    reads, written, _ = _collect_reads_and_writes(kernel)
    scalar_constants = _scalar_constants(kernel)
    definitions = _single_assignment_definitions(kernel)

    info = AccessPatternInfo(
        kernel_name=kernel.name,
        x_var=x_var,
        y_var=y_var,
        width_param=width_param,
        height_param=height_param,
        output_buffers=set(written),
    )

    for node in kernel.body.walk():
        if isinstance(node, ast.VarDecl):
            if node.address_space == "local":
                info.uses_local_memory = True
            elif node.array_size is not None:
                info.uses_private_arrays = True

    for index_node, loops in reads:
        buffer = index_node.base.name  # type: ignore[union-attr]
        summary = info.input_buffers.setdefault(buffer, BufferAccessSummary(buffer))
        summary.reads += 1
        loop_names = [lv.name for lv in loops]
        loop_value_sets = [lv.values for lv in loops]
        combos: Iterable[tuple[int, ...]]
        if loop_value_sets:
            combos = itertools.product(*loop_value_sets)
        else:
            combos = [()]
        for combo in combos:
            loop_values = dict(zip(loop_names, combo))
            evaluator = _IndexEvaluator(
                x_var,
                y_var,
                width_param,
                height_param,
                loop_values,
                scalar_constants,
                definitions,
            )
            form = evaluator.evaluate(index_node.index)
            offset = _extract_offset(form, buffer)
            summary.offsets.add(offset)
            info.accesses.append(StencilAccess(buffer=buffer, dx=offset[0], dy=offset[1]))
    return info


def _extract_offset(form: LinearForm, buffer: str) -> tuple[int, int]:
    """Extract the (dx, dy) offset from the linear form of an index."""
    yw = form.coefficient(SYM_Y, SYM_W)
    x_coeff = form.coefficient(SYM_X)
    if yw not in (0.0, 1.0) or x_coeff not in (0.0, 1.0):
        raise AnalysisError(
            f"read of buffer {buffer!r} is not a unit-stride 2D access "
            f"(Y*W coefficient {yw}, X coefficient {x_coeff})"
        )
    for mono in form.terms:
        if len(mono) > 2 or (len(mono) == 2 and tuple(sorted(mono)) != (SYM_W, SYM_Y)):
            raise AnalysisError(
                f"read of buffer {buffer!r} has a non-affine index (monomial {mono})"
            )
    dy = form.coefficient(SYM_W)
    dx = form.constant_term
    if dy != int(dy) or dx != int(dx):
        raise AnalysisError(
            f"read of buffer {buffer!r} has fractional offsets ({dx}, {dy})"
        )
    return int(dx), int(dy)
