"""Codegen execution backend: kernellang AST -> specialized NumPy Python source.

The reference interpreter (:mod:`repro.kernellang.interpreter`) runs every
work-item as a Python generator — precise, but slow.  This module executes
every work group of a launch at once, SIMT-style, the way whole-function
vectorisation stacks work-items: it lowers each (kernel source, work-group
shape) pair **once** into flat Python source built from NumPy operations
over *lanes*, compiles it with ``compile()``/``exec()`` and runs a launch
as a few stacked *passes*.  A lane is one (request, work group, local id)
triple; a pass covers whole work groups of every request of a batch, at
most :data:`MAX_PASS_LANES` lanes.

The lowering is a pretty-printer over the pass pipeline
(:mod:`repro.kernellang.passes` — see ``docs/ir.md``):

* the **uniformity analysis**
  (:class:`~repro.kernellang.passes.uniformity.UniformityAnalysis`, which
  this module's emitter subclasses) classifies every variable as *uniform*
  (same value in every lane of every group: literals, scalar kernel
  arguments, size queries, and anything computed only from those) or
  *varying* (per-lane: work-item and group ids, memory loads, and
  anything they reach).  Uniform values become plain Python scalars —
  their arithmetic follows the scalar interpreter exactly — and
  uniform-trip-count loops become plain Python loops with no mask
  machinery at all;
* varying values are ``(lanes,)`` ``int64``/``float64`` arrays, as the
  type checker's C type of each expression says (the interpreter's Python
  ``int``/``float``): every conversion — a store, a helper's arguments and
  return, a ``?:`` merge, a generic built-in's operands — is printed, and
  every int/float choice of a helper (``/``, ``%``, ``min``/``max``/
  ``clamp``) is bound, at lowering time.  They are
  bound to variables without copies (no statement writes a lane array in
  place); a comparison, ``!``, ``&&`` or ``||`` is a *predicate*, a bool
  lane mask that tests use directly and that becomes C's int 0/1 only
  where its value is used, and ``&&``/``||`` short-circuit under a mask
  only for a right operand that loads, divides, assigns or calls;
  divergent ``if``/``for``/``while``/``do-while`` (including
  ``break``/``continue``/``return``) are emitted as the **mask-insertion
  pass** (:mod:`repro.kernellang.passes.masking`) — per-lane masks until
  every lane retires, which reproduces data-dependent loops such as
  Median's insertion sort — and the generated source calls back into the
  pass's merge/arithmetic kernels by name, so outputs, error behaviour and
  :class:`~repro.clsim.executor.ExecutionStats` counters stay
  bit-identical to the interpreter;
* global buffers and local tiles become the lane-offset views of the
  **batching transform** (:mod:`repro.kernellang.passes.batching`), which
  routes every lane to its request's buffer segment and its group's
  tile; private and constant arrays become the memory views of
  :mod:`repro.kernellang.passes.memory`.  Every view records exactly one
  access per active lane;
* helper functions are inlined at the call site (straight-line helpers
  keep uniformity; anything with control flow is inlined in masked form);
* the work-group shape is baked in (``get_local_size`` folds to a
  constant).

**Barrier rule.** ``barrier()`` is a plain sequence point, since
statements already execute pass-wide; that is only sound when every lane
of the pass reaches the same barriers.  The lowering therefore rejects
(:class:`LoweringError`) a barrier reached under divergent control — a
varying branch or masked loop, including one that varies only between
groups — and a barrier in a kernel with a divergent kernel-level
``return``.  The codegen backend runs such a launch on the interpreter,
which executes each group on its own and so also accepts balanced
divergent barriers (``if (c) { barrier(); } else { barrier(); }``).  The
bundled kernels keep their barriers at the top level and always lower.

Lane arithmetic is IEEE double, exactly like the interpreter's Python
floats.  ``sqrt``/``rsqrt``/``native_divide`` use NumPy's
correctly-rounded kernels; the remaining transcendentals are applied
through :mod:`math` per active lane, because NumPy's vector routines are
not guaranteed to round identically to libm.

Compiled pass functions live on the :class:`CodegenKernel` of each
:class:`~repro.clsim.kernel.Kernel`, which
:func:`repro.core.perforator.build_kernel` builds once per (kernel source,
configuration) and shares process-wide.  Nothing is kept on disk: a new
process lowers and compiles each kernel again, which costs a fraction of
parsing and perforating it.

Kernels the lowering cannot specialize (for example a non-literal dimension
argument to ``get_global_id``) raise :class:`LoweringError`; the ``codegen``
execution backend then runs that launch on the reference interpreter
(decided once per launch, before any lane has run), so the backend never
changes observable behaviour.
"""

from __future__ import annotations

import numpy as np

from ..clsim.kernel import Kernel
from ..clsim.memory import Buffer, LocalMemory
from . import ast
from .builtins import (
    BUILTIN_CONSTANTS,
    CONTEXT_BUILTINS,
    SYNC_BUILTINS,
    get_builtin,
    is_builtin,
)
from .errors import InterpreterError
from .interpreter import (
    KernelInterpreter,
    _ConstantArray,
    convert,
    float_div,
    float_mod,
    int_div,
    int_mod,
)
from .ir import (
    CONTEXT_FIELDS,
    PREDICATE_OPS,
    LoweringError,
    Scope,
    ScopeView,
    Value,
    ctype_dt,
    join_kind,
)
from .passes.batching import global_view, local_view, route_lanes
from .passes.masking import (
    INT_BUILTINS,
    VECTOR_BUILTINS,
    FnFlow,
    VectorFallback,
    builtin_impl,
    decl_scalar,
    masked_assign,
    merge_parts,
    uniform_call,
    varying_float_div,
    varying_int_div,
    varying_mod,
)
from .passes.memory import ConstantView, PrivateView
from .passes.uniformity import UniformityAnalysis
from .types import PointerType, ScalarType, common_type

_INT = np.int64
_FLOAT = np.float64

#: Lanes per stacked pass: a launch runs in passes of whole work groups, at
#: most this many lanes each (always at least one group).  Bounds the
#: memory of one pass: on the serving benchmark 2**13 kept peak RSS within
#: 4% of one-group-at-a-time launches, while larger caps added up to 8%
#: for no clear throughput gain.
MAX_PASS_LANES = 2**13

#: The NumPy dtype name the lowered source uses for each dtype.
_NP_DTYPE = {"i": "_I", "f": "_F"}

#: The helper each ``/`` and ``%`` binds, by operator, dtype and kind: the
#: interpreter's own functions for uniform operands, lane kernels otherwise
#: (``np.fmod`` serves int and float ``%`` alike).
_DIVISION = {
    ("/", "i", "u"): "_idiv",
    ("/", "f", "u"): "_fdiv",
    ("%", "i", "u"): "_imod",
    ("%", "f", "u"): "_fmod",
    ("/", "i", "v"): "_vidiv",
    ("/", "f", "v"): "_vfdiv",
    ("%", "i", "v"): "_vmod",
    ("%", "f", "v"): "_vmod",
}

__all__ = [
    "MAX_PASS_LANES",
    "CodegenKernel",
    "LoweringError",
    "codegen_kernel",
    "lower_kernel",
]


# ---------------------------------------------------------------------------
# Runtime namespace of the generated source
# ---------------------------------------------------------------------------
def _exec_namespace() -> dict:
    """Globals dict the lowered source of a kernel is executed in.

    The lowered source contains no imports: every runtime name resolves
    through this namespace.  (Real builtins are required — NumPy's truth
    tests reach for them.)
    """
    import builtins

    return {
        "__builtins__": builtins,
        "_np": np,
        "_I": _INT,
        "_F": _FLOAT,
        "_CPrivate": PrivateView,
        "_ONCE": (0,),
        "_VB": VECTOR_BUILTINS,
        "_VI": INT_BUILTINS,
        "_VF": VectorFallback,
        "_BI_IMPL": builtin_impl,
        "_ucall": uniform_call,
        "_idiv": int_div,
        "_fdiv": float_div,
        "_imod": int_mod,
        "_fmod": float_mod,
        "_vidiv": varying_int_div,
        "_vfdiv": varying_float_div,
        "_vmod": varying_mod,
        "_amask": masked_assign,
        "_decl_scalar": decl_scalar,
        "_merge_parts": merge_parts,
        "_FnFlow": FnFlow,
        "_IErr": InterpreterError,
        "int": int,
        "float": float,
    }


# ---------------------------------------------------------------------------
# Per-pass runtime state handed to the generated function
# ---------------------------------------------------------------------------
class _Runtime:
    """Everything a generated pass function reads: ids, sizes, containers."""

    __slots__ = ("L", "M0", "Z", "gid", "lid", "grp", "gsz", "ngrp", "c", "s", "local")


def _pass_runtime(
    compiled: "CodegenKernel",
    args: dict,
    ndrange,
    batch: int,
    first: int,
    count: int,
    local: LocalMemory,
) -> _Runtime:
    """Runtime of the pass over launch slots ``[first, first + count)``."""
    group = ndrange.work_group_size
    request, lid, grp = route_lanes(first, count, ndrange.num_groups, ndrange.local_size)
    rt = _Runtime()
    rt.L = count * group
    rt.M0 = np.ones(rt.L, dtype=bool)
    rt.Z = np.zeros(rt.L, dtype=bool)
    rt.lid = lid
    rt.grp = grp
    rt.gid = tuple(g * extent + i for g, extent, i in zip(grp, ndrange.local_size, lid))
    rt.gsz = ndrange.global_size
    rt.ngrp = ndrange.num_groups
    rt.c = dict(compiled.const_containers)
    rt.s = {}
    for param in compiled.kernel_def.params:
        value = args[param.name]
        if isinstance(param.param_type, PointerType):
            if not isinstance(value, Buffer):
                raise InterpreterError(
                    f"pointer argument {param.name!r} must be bound to a Buffer"
                )
            rt.c[param.name] = global_view(value, batch, request)
        else:
            rt.s[param.name] = convert(param.param_type, value)
    rt.local = lambda name, length: local_view(local, name, length, count, group)
    return rt


# ---------------------------------------------------------------------------
# Lowering: AST -> specialized Python source
# ---------------------------------------------------------------------------
def _mask_sensitive(expr) -> bool:
    """Whether evaluating ``expr`` on a lane C skips could be observed: it
    loads, divides, assigns or calls (an id query excepted)."""
    return any(
        isinstance(node, (ast.Index, ast.Assignment))
        or (isinstance(node, ast.Call) and node.name not in CONTEXT_BUILTINS)
        or (isinstance(node, ast.BinaryOp) and node.op in ("/", "%"))
        or (isinstance(node, ast.UnaryOp) and node.op in ("++", "--"))
        for node in expr.walk()
    )


class _Emitter(UniformityAnalysis):
    """Emission half of the lowering (classification lives in the base)."""

    def __init__(
        self,
        program: ast.Program,
        kernel_name: str | None,
        local_size: tuple[int, ...],
    ) -> None:
        super().__init__(program, kernel_name, local_size)
        self.lines: list[str] = []
        self.depth = 0
        self.counter = 0
        self.binds: dict[str, str] = {}  # module-level built-in bindings
        self.used_ids: set[str] = set()  # prologue ids: g0, l1, G0, S0, N0

        # Emission context.
        self.mask = "M0"
        self.div = False
        self.in_function = False
        self.fnflow: str | None = None
        self.retdt = "i"  # the inlined helper's return dtype
        self.retref: str | None = None
        self.loops: list[dict] = []

    # -- small utilities ------------------------------------------------
    def _tmp(self, prefix: str = "_t") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def _push(self) -> None:
        self.depth += 1

    def _pop(self) -> None:
        self.depth -= 1

    def _bind(self, name: str, code: str) -> str:
        """Module-level binding in the lowered source (built-in lookups etc.)."""
        if name not in self.binds:
            self.binds[name] = code
        return name

    # -- capture/splice for lazily evaluated sub-expressions -------------
    def _capture_expr(self, fn):
        saved_lines, saved_depth = self.lines, self.depth
        self.lines, self.depth = [], 0
        try:
            result = fn()
        finally:
            captured, self.lines, self.depth = self.lines, saved_lines, saved_depth
        return captured, result

    def _splice(self, captured: list[str]) -> None:
        pad = "    " * self.depth
        for line in captured:
            self.lines.append(pad + line)

    # -- value plumbing ---------------------------------------------------
    def _promote(self, v: Value) -> str:
        """Code for ``v`` as a (lanes,) array."""
        return f"_np.full(L, {v.code})" if v.kind == "u" else v.code

    def _typed_code(self, v: Value, dt: str) -> str:
        """Code for ``v`` converted to dtype ``dt`` (``"i"`` or ``"f"``), a
        scalar if ``v`` is uniform and lanes if it varies: to int truncates
        a float toward zero, as C does.  A value of type ``dt`` already is
        used as is, never copied."""
        if v.dt == dt:
            return v.code
        if v.kind == "u":
            return f"int({v.code})" if dt == "i" else f"float({v.code})"
        return f"_np.asarray({v.code}).astype({_NP_DTYPE[dt]})"

    def _typed(self, v: Value, dt: str) -> Value:
        """``v`` converted to dtype ``dt`` (see :meth:`_typed_code`)."""
        return v if v.dt == dt else Value(self._typed_code(v, dt), v.kind, dt)

    # -- entry point ------------------------------------------------------
    def lower(self) -> str:
        scope = self.kernel_scope()
        self._classify(self.kernel_def.body, scope, False, False)

        self.depth = 1
        self._emit_block(self.kernel_def.body.statements, scope)
        self._line("return _b")
        body = self.lines

        out: list[str] = [
            f"# kernel: {self.kernel_def.name}  local_size={self.local_size}",
        ]
        for name in sorted(self.binds):
            out.append(f"{name} = {self.binds[name]}")
        out.append("")
        out.append("def kernel_pass(rt):")
        prologue = ["L = rt.L", "M0 = rt.M0", "_Z = rt.Z", "_b = 0"]
        dims = {"gid": "g", "lid": "l", "grp": "G", "gsz": "S", "ngrp": "N"}
        for field, short in dims.items():
            for dim in range(len(self.local_size)):
                ident = f"{short}{dim}"
                if ident in self.used_ids:
                    prologue.append(f"{ident} = rt.{field}[{dim}]")
        for param in self.kernel_def.params:
            name = param.name
            if isinstance(param.param_type, PointerType):
                prologue.append(f"c_{name} = rt.c[{name!r}]")
            elif scope.kind.get(name) == "v":
                prologue.append(f"v_{name} = _np.full(L, rt.s[{name!r}])")
            else:
                prologue.append(f"v_{name} = rt.s[{name!r}]")
        for name, value in self.constants.items():
            if isinstance(value, _ConstantArray):
                prologue.append(f"kc_{name} = rt.c[{name!r}]")
            else:
                prologue.append(f"k_{name} = {value!r}")
        if self.has_masked_return:
            prologue.append("_ret = _Z")
        prebound = {p.name for p in self.kernel_def.params} | set(self.constants)
        for name in sorted(scope.divdecl - prebound):
            py = scope.py.get(name)
            if py:
                prologue.append(f"{py} = None")
        for line in prologue:
            out.append("    " + line)
        out.extend(body)
        out.append("")
        return "\n".join(out)

    # -- statements -------------------------------------------------------
    def _suite(self, emit_fn) -> None:
        """Emit an indented suite, inserting ``pass`` if it came out empty."""
        self._push()
        mark = len(self.lines)
        emit_fn()
        if len(self.lines) == mark:
            self._line("pass")
        self._pop()

    def _emit_block(self, stmts, scope: Scope) -> None:
        for index, stmt in enumerate(stmts):
            self._emit_stmt(stmt, scope)
            rest = stmts[index + 1:]
            if rest and self.div and self._stmt_kills(stmt):
                entry = self.mask
                self._line(f"if {entry}.any():")

                def emit_rest():
                    self._emit_block(rest, scope)
                    if self.mask != entry:
                        self._line(f"{entry} = {self.mask}")

                self._suite(emit_rest)
                self.mask = entry
                return

    def _emit_stmt(self, stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.DeclStmt):
            for decl in stmt.declarations:
                self._emit_decl(decl, scope)
            return
        if isinstance(stmt, ast.ExprStmt):
            if isinstance(stmt.expr, ast.Call) and stmt.expr.name in SYNC_BUILTINS:
                if stmt.expr.name == "barrier":
                    self._emit_barrier()
                return
            value = self._emit(stmt.expr, scope)
            if not value.code.isidentifier():
                self._line(value.code)
            return
        if isinstance(stmt, ast.Block):
            self._emit_block(stmt.statements, scope)
            return
        if isinstance(stmt, ast.IfStmt):
            self._emit_if(stmt, scope)
            return
        if isinstance(stmt, ast.ForStmt):
            self._emit_loop(stmt, scope, init=stmt.init, step=stmt.step)
            return
        if isinstance(stmt, ast.WhileStmt):
            self._emit_loop(stmt, scope)
            return
        if isinstance(stmt, ast.DoWhileStmt):
            self._emit_loop(stmt, scope, check_first=False)
            return
        if isinstance(stmt, ast.ReturnStmt):
            self._emit_return(stmt, scope)
            return
        if isinstance(stmt, ast.BreakStmt):
            self._emit_break()
            return
        if isinstance(stmt, ast.ContinueStmt):
            self._emit_continue()
            return
        raise self._unsupported(f"statement {type(stmt).__name__}")

    def _emit_barrier(self) -> None:
        if self.in_function:
            self._line('raise _IErr("helper functions may not contain barriers")')
            return
        if self.div:
            raise self._unsupported("a barrier() under divergent control")
        if self.has_masked_return:
            raise self._unsupported("a barrier() in a kernel with a divergent return")
        self._line("_b += 1")

    def _emit_decl(self, decl: ast.VarDecl, scope: Scope) -> None:
        name = decl.name
        if decl.array_size is not None:
            size = self._emit_expr(decl.array_size, scope)
            if size.kind == "v":
                raise self._unsupported(f"array {name!r} with a varying size")
            if isinstance(decl.array_size, ast.IntLiteral):
                if decl.array_size.value <= 0:
                    raise self._unsupported(f"array {name!r} with size <= 0")
                length = str(decl.array_size.value)
            else:
                length = self._tmp("_n")
                self._line(f"{length} = int({size.code})")
                self._line(f"if {length} <= 0:")
                self._push()
                self._line(
                    f'raise _IErr("array {name!r} must have a positive size, '
                    f'got " + str({length}))'
                )
                self._pop()
            py = scope.py.get(name)
            if not py:
                py = f"a{self._next_id()}_{name}"
                scope.py[name] = py
            if decl.address_space == "local":
                scope.space[name] = "local"
                self._line(f"{py} = rt.local({name!r}, {length})")
            else:
                scope.space[name] = "private"
                self._line(f"{py} = _CPrivate({name!r}, {length}, L)")
                if isinstance(decl.init, ast.InitList):
                    element_dt = ctype_dt(decl.var_type)
                    for position, value_expr in enumerate(decl.init.values):
                        value = self._typed(self._emit_expr(value_expr, scope), element_dt)
                        if self.div:
                            self._line(
                                f"{py}.storem({position}, {value.code}, {self.mask})"
                            )
                        else:
                            self._line(f"{py}.storef({position}, {value.code})")
            return

        if decl.init is not None:
            value = self._emit_expr(decl.init, scope)
        else:
            value = Value("0", "u", "i")
        py = scope.py.get(name)
        if not py:
            py = f"v{self._next_id()}_{name}"
            scope.py[name] = py
        dt = ctype_dt(decl.var_type)
        if dt == "i" and value.kind == "u":
            # A uniform int declaration always prints its conversion.
            code = f"int({value.code})"
        else:
            code = self._typed_code(value, dt)
        if scope.kind.get(name, "u") == "u":
            self._line(f"{py} = {code}")
            return
        # Varying slot: promote uniforms.
        if value.kind == "u":
            code = f"_np.full(L, {code})"
        if self.div:
            self._line(f"{py} = _decl_scalar({py}, {code}, {self.mask})")
        else:
            self._line(f"{py} = {code}")

    def _next_id(self) -> int:
        self.counter += 1
        return self.counter

    def _emit_if(self, stmt: ast.IfStmt, scope: Scope) -> None:
        cond = self._emit_test(stmt.condition, scope)
        if cond.kind == "u":
            # Masked kills inside a uniform branch (a varying sub-if with a
            # return, say) reassign the current mask to a temp defined only
            # inside that Python branch; pre-bind a merge variable so the
            # fall-through path always has a defined mask.
            masked_kills = self._body_has_masked_kills(
                stmt.then_body, scope, self.div
            ) or (
                stmt.else_body is not None
                and self._body_has_masked_kills(stmt.else_body, scope, self.div)
            )
            entry_mask, entry_div = self.mask, self.div
            merge = None
            if masked_kills:
                merge = self._tmp("_m")
                self._line(f"{merge} = {self.mask}")
                self.mask = merge

            def emit_uniform_branch(body):
                self.mask, self.div = merge or entry_mask, entry_div
                self._emit_block(body.statements, scope)
                if merge is not None and self.mask != merge:
                    self._line(f"{merge} = {self.mask}")

            self._line(f"if {cond.code}:")
            self._suite(lambda: emit_uniform_branch(stmt.then_body))
            if stmt.else_body is not None:
                self._line("else:")
                self._suite(lambda: emit_uniform_branch(stmt.else_body))
            if masked_kills:
                self.mask, self.div = merge, True
            else:
                self.mask, self.div = entry_mask, entry_div
            return
        test = self._tmp("_c")
        self._line(f"{test} = {cond.code}")
        then_mask = self._tmp("_m")
        self._line(f"{then_mask} = {self.mask} & {test}")
        kills = self._contains_kills(stmt.then_body) or (
            stmt.else_body is not None and self._contains_kills(stmt.else_body)
        )
        else_mask = None
        if stmt.else_body is not None or kills:
            else_mask = self._tmp("_m")
            self._line(f"{else_mask} = {self.mask} & ~{test}")
        entry_mask, entry_div = self.mask, self.div

        def emit_branch(mask_var, body):
            self.mask, self.div = mask_var, True
            self._emit_block(body.statements, scope)
            if self.mask != mask_var:
                self._line(f"{mask_var} = {self.mask}")

        self._line(f"if {then_mask}.any():")
        self._suite(lambda: emit_branch(then_mask, stmt.then_body))
        if stmt.else_body is not None:
            self._line(f"if {else_mask}.any():")
            self._suite(lambda: emit_branch(else_mask, stmt.else_body))
        if kills:
            merged = self._tmp("_m")
            self._line(f"{merged} = {then_mask} | {else_mask}")
            self.mask, self.div = merged, True
        else:
            self.mask, self.div = entry_mask, entry_div

    def _emit_loop(self, stmt, scope: Scope, init=None, step=None,
                   check_first: bool = True) -> None:
        entry_mask, entry_div = self.mask, self.div
        if init is not None:
            self._emit_stmt(init, scope)
        if self._loop_masked(stmt, scope, self.div):
            self._emit_masked_loop(stmt, scope, step, check_first)
            return
        # Uniform loop: plain Python control flow, no masks.
        need_once = self._has_direct(stmt.body, ast.ContinueStmt)
        if isinstance(stmt, ast.WhileStmt):
            need_once = False  # `continue` maps to Python continue directly
        need_flag = need_once and self._has_direct(stmt.body, ast.BreakStmt)
        flag = self._tmp("_bk") if need_flag else None
        self._line("while True:")
        self._push()
        if check_first and stmt.condition is not None:
            cond = self._emit_test(stmt.condition, scope)
            self._line(f"if not ({cond.code}):")
            self._push()
            self._line("break")
            self._pop()
        if flag:
            self._line(f"{flag} = False")
        self.loops.append({
            "masked": False, "once": need_once, "flag": flag,
            "python_while": isinstance(stmt, ast.WhileStmt),
        })
        if need_once:
            self._line("for _once in _ONCE:")
            self._suite(lambda: self._emit_block(stmt.body.statements, scope))
        else:
            mark = len(self.lines)
            self._emit_block(stmt.body.statements, scope)
            if len(self.lines) == mark and (not check_first or stmt.condition is None):
                self._line("pass")
        self.loops.pop()
        if flag:
            self._line(f"if {flag}:")
            self._push()
            self._line("break")
            self._pop()
        if step is not None:
            value = self._emit(step, scope)
            if not value.code.isidentifier():
                self._line(value.code)
        if not check_first and stmt.condition is not None:
            cond = self._emit_test(stmt.condition, scope)
            self._line(f"if not ({cond.code}):")
            self._push()
            self._line("break")
            self._pop()
        self._pop()
        self.mask, self.div = entry_mask, entry_div

    def _has_direct(self, block, node_type, in_inner=False) -> bool:
        """Whether ``block`` has a break/continue binding to *this* loop."""
        for stmt in block.statements:
            if isinstance(stmt, node_type) and not in_inner:
                return True
            if isinstance(stmt, ast.Block):
                if self._has_direct(stmt, node_type, in_inner):
                    return True
            elif isinstance(stmt, ast.IfStmt):
                if self._has_direct(stmt.then_body, node_type, in_inner):
                    return True
                if stmt.else_body is not None and self._has_direct(
                    stmt.else_body, node_type, in_inner
                ):
                    return True
            elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoWhileStmt)):
                if self._has_direct(stmt.body, node_type, True):
                    return True
        return False

    def _emit_masked_loop(self, stmt, scope: Scope, step, check_first) -> None:
        entry_mask, entry_div = self.mask, self.div
        active = self._tmp("_ma")
        self._line(f"{active} = {entry_mask}")
        first = None
        if not check_first and stmt.condition is not None:
            first = self._tmp("_fr")
            self._line(f"{first} = True")
        self._line(f"while {active}.any():")
        self._push()
        if stmt.condition is not None:
            if first:
                self._line(f"if not {first}:")
                self._push()
            self.mask, self.div = active, True
            cond = self._emit_test(stmt.condition, scope)
            self._line(f"{active} = {active} & {cond.code}")
            self._line(f"if not {active}.any():")
            self._push()
            self._line("break")
            self._pop()
            if first:
                self._pop()
                self._line(f"{first} = False")
        cont = self._tmp("_mc")
        self._line(f"{cont} = _Z")
        body_mask = self._tmp("_mx")
        self._line(f"{body_mask} = {active}")
        self.loops.append({"masked": True, "cont": cont})
        self.mask, self.div = body_mask, True
        self._emit_block(stmt.body.statements, scope)
        if self.mask != body_mask:
            self._line(f"{body_mask} = {self.mask}")
        self.loops.pop()
        self._line(f"{active} = {body_mask} | {cont}")
        if step is not None:
            self._line(f"if {active}.any():")
            self._push()
            self.mask, self.div = active, True
            value = self._emit(step, scope)
            if not value.code.isidentifier():
                self._line(value.code)
            self._pop()
        self._pop()
        if self._count_returns(stmt.body):
            after = self._tmp("_m")
            self._line(f"{after} = {entry_mask} & ~{self.retref or '_ret'}")
            self.mask, self.div = after, True
        else:
            self.mask, self.div = entry_mask, entry_div

    def _emit_return(self, stmt: ast.ReturnStmt, scope: Scope) -> None:
        value = None
        if stmt.value is not None:
            emit = self._emit_expr if self.in_function else self._emit
            value = emit(stmt.value, scope)
        if self.in_function:
            # A returned value converts to the helper's return type.
            arr = "None" if value is None else self._promote(self._typed(value, self.retdt))
            self._line(f"{self.fnflow}.record({self.mask}, {arr})")
            self._line(f"{self.mask} = _Z")
            return
        if not self.div:
            if value is not None and not value.code.isidentifier():
                self._line(value.code)
            self._line("return _b")
            return
        if value is not None and not value.code.isidentifier():
            self._line(value.code)
        self._line(f"_ret = _ret | {self.mask}")
        self._line(f"{self.mask} = _Z")

    def _emit_break(self) -> None:
        if not self.loops:
            raise self._unsupported("break outside of a loop")
        loop = self.loops[-1]
        if loop["masked"]:
            self._line(f"{self.mask} = _Z")
        elif loop.get("flag"):
            self._line(f"{loop['flag']} = True")
            self._line("break")
        else:
            self._line("break")

    def _emit_continue(self) -> None:
        if not self.loops:
            raise self._unsupported("continue outside of a loop")
        loop = self.loops[-1]
        if loop["masked"]:
            self._line(f"{loop['cont']} = {loop['cont']} | {self.mask}")
            self._line(f"{self.mask} = _Z")
        elif loop.get("python_while"):
            self._line("continue")
        else:
            self._line("break")  # exits the _ONCE wrapper, falls to the step

    # -- expressions ------------------------------------------------------
    def _emit_expr(self, expr, scope: Scope) -> Value:
        """``expr`` as a C value: a predicate becomes an int 0/1 here."""
        value = self._emit(expr, scope)
        if value.dt != "b":
            return value
        if value.kind == "u":
            return Value(f"int({value.code})", "u", "i")
        return Value(f"({value.code}).astype(_I)", "v", "i")

    def _emit_test(self, expr, scope: Scope) -> Value:
        """``expr`` as a predicate: a Python bool or a bool lane mask."""
        value = self._emit(expr, scope)
        if value.dt == "b":
            return value
        return Value(f"(({value.code}) != 0)", value.kind, "b")

    def _emit(self, expr, scope: Scope) -> Value:
        """``expr`` as a C value or a predicate (``dt == "b"``)."""
        if isinstance(expr, ast.IntLiteral):
            return Value(repr(expr.value), "u", "i")
        if isinstance(expr, ast.FloatLiteral):
            return Value(repr(expr.value), "u", "f")
        if isinstance(expr, ast.BoolLiteral):
            return Value("1" if expr.value else "0", "u", "i")
        if isinstance(expr, ast.Identifier):
            name = expr.name
            if name in scope.space:
                return Value(scope.py[name], "c", scope.space[name])
            if name in scope.kind:
                py = scope.py.get(name)
                if not py:
                    raise self._unsupported(f"use of {name!r} before its declaration")
                return Value(py, scope.kind[name], ctype_dt(expr.ctype))
            if name in BUILTIN_CONSTANTS:
                return Value(repr(BUILTIN_CONSTANTS[name]), "u", ctype_dt(expr.ctype))
            raise self._unsupported(f"undefined identifier {name!r}")
        if isinstance(expr, ast.UnaryOp):
            return self._emit_unary(expr, scope)
        if isinstance(expr, ast.BinaryOp):
            return self._emit_binary(expr, scope)
        if isinstance(expr, ast.Assignment):
            return self._emit_assignment(expr, scope)
        if isinstance(expr, ast.Ternary):
            return self._emit_ternary(expr, scope)
        if isinstance(expr, ast.Call):
            return self._emit_call(expr, scope)
        if isinstance(expr, ast.Index):
            return self._emit_load_index(expr, scope)
        if isinstance(expr, ast.Cast):
            value = self._emit_expr(expr.expr, scope)
            if isinstance(expr.target_type, ScalarType) and expr.target_type.is_integer:
                if value.kind == "u":
                    return Value(f"int({value.code})", "u", "i")
                return Value(self._typed_code(value, "i"), "v", "i")
            if isinstance(expr.target_type, ScalarType) and expr.target_type.is_float:
                if value.kind == "u":
                    return Value(f"float({value.code})", "u", "f")
                return Value(f"_np.asarray({value.code}).astype(_F)", "v", "f")
            return value
        raise self._unsupported(f"expression {type(expr).__name__}")

    def _emit_unary(self, expr: ast.UnaryOp, scope: Scope) -> Value:
        if expr.op in ("++", "--"):
            delta = "1" if expr.op == "++" else "-1"
            old = self._emit_expr(expr.operand, scope)
            old_t = self._tmp()
            self._line(f"{old_t} = {old.code}")
            new_t = self._tmp()
            self._line(f"{new_t} = {old_t} + ({delta})")
            self._store_to(expr.operand, Value(new_t, old.kind, old.dt), scope)
            return Value(old_t if expr.postfix else new_t, old.kind, old.dt)
        if expr.op == "!":
            operand = self._emit(expr.operand, scope)
            if operand.dt != "b":
                return Value(f"(({operand.code}) == 0)", operand.kind, "b")
            negated = f"(not {operand.code})" if operand.kind == "u" else f"(~{operand.code})"
            return Value(negated, operand.kind, "b")
        operand = self._emit_expr(expr.operand, scope)
        if expr.op == "-":
            return Value(f"(-({operand.code}))", operand.kind, operand.dt)
        if expr.op == "+":
            return operand
        if expr.op == "~":
            return Value(f"(~{self._typed_code(operand, 'i')})", operand.kind, "i")
        raise self._unsupported(f"unary operator {expr.op!r}")

    def _emit_binary(self, expr: ast.BinaryOp, scope: Scope) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._emit_logical(expr, scope)
        left = self._emit_expr(expr.left, scope)
        right = self._emit_expr(expr.right, scope)
        return self._apply_binary(op, left, right, ctype_dt(expr.ctype))

    def _apply_binary(self, op: str, left: Value, right: Value, dt: str) -> Value:
        """``left op right``; ``dt`` is the operation's static type, which
        picks the integer or the float ``/`` and ``%``."""
        kind = join_kind(left.kind, right.kind)
        if op in ("/", "%"):
            mask = "" if kind == "u" else f", {self.mask}"
            return Value(f"{_DIVISION[op, dt, kind]}({left.code}, {right.code}{mask})", kind, dt)
        if op in ("+", "-", "*"):
            return Value(f"(({left.code}) {op} ({right.code}))", kind, dt)
        if op in PREDICATE_OPS:
            return Value(f"(({left.code}) {op} ({right.code}))", kind, "b")
        if op in ("&", "|", "^", "<<", ">>"):
            lc, rc = self._typed_code(left, "i"), self._typed_code(right, "i")
            return Value(f"(({lc}) {op} ({rc}))", kind, "i")
        raise self._unsupported(f"binary operator {op!r}")

    def _emit_logical(self, expr: ast.BinaryOp, scope: Scope) -> Value:
        is_and = expr.op == "&&"
        left = self._emit_test(expr.left, scope)
        kind = self._c_expr(expr, ScopeView(scope), self.div)
        if kind == "u":
            captured, right = self._capture_expr(
                lambda: self._emit_test(expr.right, scope)
            )
            if not captured:
                op = "and" if is_and else "or"
                return Value(f"(({left.code}) {op} ({right.code}))", "u", "b")
            out = self._tmp()
            self._line(f"{out} = {left.code}")
            self._line(f"if {'' if is_and else 'not '}{out}:")
            self._push()
            self._splice(captured)
            self._line(f"{out} = {right.code}")
            self._pop()
            return Value(out, "u", "b")
        op = "&" if is_and else "|"
        if not _mask_sensitive(expr.right):
            # Evaluating the right operand on every lane is unobservable.
            right = self._emit_test(expr.right, scope)
            return Value(f"(({left.code}) {op} ({right.code}))", "v", "b")
        # Masked short-circuit: only the lanes the left operand leaves
        # undecided evaluate the right one.
        undecided = left.code
        if not is_and:
            undecided = f"(not {undecided})" if left.kind == "u" else f"~{undecided}"
        right_mask = self._tmp("_m")
        self._line(f"{right_mask} = {self.mask} & {undecided}")
        out = self._tmp()
        self._line(f"{out} = {'' if is_and else '~'}{right_mask}")
        self._line(f"if {right_mask}.any():")
        self._push()
        saved_mask, saved_div = self.mask, self.div
        self.mask, self.div = right_mask, True
        right = self._emit_test(expr.right, scope)
        self._line(f"{out} = {out} {op} {right.code}")
        self.mask, self.div = saved_mask, saved_div
        self._pop()
        return Value(out, "v", "b")

    def _emit_assignment(self, expr: ast.Assignment, scope: Scope) -> Value:
        value = self._emit_expr(expr.value, scope)
        if expr.op != "=":
            current = self._emit_expr(expr.target, scope)
            optype = common_type(expr.target.ctype, expr.value.ctype)
            value = self._apply_binary(expr.op[:-1], current, value, ctype_dt(optype))
        # The stored value, and the assignment's, has the target's type.
        value = self._materialize(self._typed(value, ctype_dt(expr.ctype)))
        self._store_to(expr.target, value, scope)
        return value

    def _materialize(self, value: Value) -> Value:
        """Bind a composite expression to a temp so it is evaluated once."""
        if value.code.isidentifier() or value.code.replace(".", "", 1).isdigit():
            return value
        name = self._tmp()
        self._line(f"{name} = {value.code}")
        return Value(name, value.kind, value.dt)

    def _store_to(self, target, value: Value, scope: Scope) -> None:
        if isinstance(target, ast.Identifier):
            self._store_ident(target.name, value, scope)
            return
        if isinstance(target, ast.Index):
            self._store_index(target, value, scope)
            return
        raise self._unsupported("assignment target")

    def _store_ident(self, name: str, value: Value, scope: Scope) -> None:
        """Store ``value``, which has the variable's type already."""
        if name not in scope.kind:
            raise self._unsupported(f"assignment to undefined variable {name!r}")
        py = scope.py.get(name)
        if not py:
            raise self._unsupported(f"assignment to {name!r} before its declaration")
        if scope.kind[name] == "v" and self.div:
            self._line(f"{py} = _amask({py}, {value.code}, {self.mask})")
            return
        code = value.code
        if scope.kind[name] == "v" and value.kind == "u":
            code = f"_np.full(L, {code})"
        self._line(f"{py} = {code}")

    def _container(self, base, scope: Scope):
        value = self._emit_expr(base, scope)
        if value.kind != "c":
            raise self._unsupported("indexing a non-array value")
        return value

    def _store_index(self, target: ast.Index, value: Value, scope: Scope) -> None:
        container = self._container(target.base, scope)
        idx = self._typed_code(self._emit_expr(target.index, scope), "i")
        if self.div:
            self._line(f"{container.code}.storem({idx}, {value.code}, {self.mask})")
        else:
            self._line(f"{container.code}.storef({idx}, {value.code})")

    def _emit_load_index(self, expr: ast.Index, scope: Scope) -> Value:
        container = self._container(expr.base, scope)
        index = self._emit_expr(expr.index, scope)
        py = container.code
        idx = self._typed_code(index, "i")
        # The container Value carries the address space in .dt; only a
        # constant array read at a uniform index yields a uniform value.
        # Memory holds float64: an int element converts on its load.
        if container.dt == "constant" and index.kind == "u":
            if self.div:
                load = Value(f"{py}.loadum({idx}, {self.mask})", "u", "f")
            else:
                load = Value(f"{py}.loadu({idx}, L)", "u", "f")
        elif self.div:
            load = Value(f"{py}.loadm({idx}, {self.mask})", "v", "f")
        else:
            load = Value(f"{py}.loadf({idx})", "v", "f")
        return self._typed(load, ctype_dt(expr.ctype))

    def _emit_ternary(self, expr: ast.Ternary, scope: Scope) -> Value:
        """A ``?:`` of the arms' common type: a uniform test converts the
        arm it picks, a varying one merges both arms into lanes of the type."""
        dt = ctype_dt(expr.ctype)
        cond = self._emit_test(expr.condition, scope)
        if cond.kind == "u":
            cap_a, a = self._capture_expr(
                lambda: self._typed(self._emit_expr(expr.if_true, scope), dt)
            )
            cap_b, b = self._capture_expr(
                lambda: self._typed(self._emit_expr(expr.if_false, scope), dt)
            )
            kind = join_kind(a.kind, b.kind)
            if not cap_a and not cap_b and kind == "u":
                return Value(f"(({a.code}) if ({cond.code}) else ({b.code}))", "u", dt)
            out = self._tmp()
            self._line(f"if ({cond.code}):")
            self._push()
            self._splice(cap_a)
            code_a = self._promote(a) if kind == "v" else a.code
            self._line(f"{out} = {code_a}")
            self._pop()
            self._line("else:")
            self._push()
            self._splice(cap_b)
            code_b = self._promote(b) if kind == "v" else b.code
            self._line(f"{out} = {code_b}")
            self._pop()
            return Value(out, kind, dt)
        test = self._tmp("_c")
        self._line(f"{test} = {cond.code}")
        mask_t = self._tmp("_m")
        mask_f = self._tmp("_m")
        self._line(f"{mask_t} = {self.mask} & {test}")
        self._line(f"{mask_f} = {self.mask} & ~{test}")
        parts = self._tmp("_p")
        self._line(f"{parts} = []")
        saved_mask, saved_div = self.mask, self.div
        for arm_mask, arm_expr in ((mask_t, expr.if_true), (mask_f, expr.if_false)):
            self._line(f"if {arm_mask}.any():")
            self._push()
            self.mask, self.div = arm_mask, True
            arm = self._emit_expr(arm_expr, scope)
            self._line(f"{parts}.append(({arm_mask}, {self._promote(arm)}))")
            self.mask, self.div = saved_mask, saved_div
            self._pop()
        out = self._tmp()
        self._line(f"{out} = _merge_parts(L, {parts}, {_NP_DTYPE[dt]})")
        return Value(out, "v", dt)

    # -- calls ------------------------------------------------------------
    def _emit_call(self, call: ast.Call, scope: Scope) -> Value:
        name = call.name
        if name in CONTEXT_BUILTINS:
            dim = self._context_dim(call)
            field = CONTEXT_FIELDS[name]
            if field == "lsz":
                return Value(str(self.local_size[dim]), "u", "i")
            short = {"gid": "g", "lid": "l", "grp": "G", "gsz": "S", "ngrp": "N"}[field]
            ident = f"{short}{dim}"
            self.used_ids.add(ident)
            if field in ("gid", "lid", "grp"):
                return Value(ident, "v", "i")
            return Value(ident, "u", "i")
        if name in SYNC_BUILTINS:
            raise self._unsupported("barrier()/mem_fence() inside an expression")
        if is_builtin(name):
            args = [self._emit_expr(arg, scope) for arg in call.args]
            if any(arg.kind == "c" for arg in args):
                raise self._unsupported(f"array argument to built-in {name!r}")
            # A generic built-in's operands convert to its result type, a
            # <math.h> function's arguments to float.
            dt = ctype_dt(call.ctype)
            generic = get_builtin(name).generic
            if generic:
                args[:generic] = [self._typed(arg, dt) for arg in args[:generic]]
            else:
                args = [self._typed(arg, "f") for arg in args]
            if join_kind(*(arg.kind for arg in args)) == "u":
                impl = self._bind(f"_bi_{name}", f"_BI_IMPL({name!r})")
                arg_code = ", ".join(arg.code for arg in args)
                return Value(f"_ucall({name!r}, {impl}, {arg_code})", "u", dt)
            if dt == "i" and name in INT_BUILTINS:
                fn = self._bind(f"_vi_{name}", f"_VI[{name!r}]")
                arg_code = ", ".join(arg.code for arg in args)
                return Value(f"{fn}({self.mask}, {arg_code})", "v", dt)
            if name in VECTOR_BUILTINS:
                fn = self._bind(f"_vb_{name}", f"_VB[{name!r}]")
                arg_code = ", ".join(arg.code for arg in args)
                return Value(f"{fn}({self.mask}, {arg_code})", "v", dt)
            fn = self._bind(f"_vf_{name}", f"_VF({name!r})")
            arg_code = ", ".join(self._promote(arg) for arg in args)
            return Value(f"{fn}({self.mask}, {arg_code})", "v", dt)
        if name in self.functions:
            return self._emit_user_call(self.functions[name], call, scope)
        raise self._unsupported(f"call to unknown function {name!r}")

    def _emit_user_call(self, func: ast.FunctionDef, call: ast.Call,
                        scope: Scope) -> Value:
        arg_values = [self._emit_expr(arg, scope) for arg in call.args]
        arg_sigs = tuple(v.dt if v.kind == "c" else v.kind for v in arg_values)
        kind, simple = self._fn_summary(func, arg_sigs, self.div)
        dt = ctype_dt(func.return_type)
        callee = self._callee_scope(func, arg_sigs)
        self._inline_stack.append(func.name)
        try:
            self._classify(func.body, callee, self.div or not simple, in_function=True)
            for param, v in zip(func.params, arg_values):
                if v.kind == "c":
                    callee.py[param.name] = v.code
                    continue
                # An argument converts to its parameter's type.  A uniform
                # one the body assigns under divergence needs its own lanes.
                v = self._typed(v, ctype_dt(param.param_type))
                code = self._promote(v) if callee.kind[param.name] == "v" else v.code
                bound = self._tmp("_a")
                self._line(f"{bound} = {code}")
                callee.py[param.name] = bound
            if simple:
                simple_prebound = {p.name for p in func.params} | set(self.constants)
                for name in sorted(callee.divdecl - simple_prebound):
                    py = callee.py.get(name)
                    if not py:
                        py = f"v{self._next_id()}_{name}"
                        callee.py[name] = py
                    self._line(f"{py} = None")
                for stmt in func.body.statements[:-1]:
                    self._emit_stmt_in_function(stmt, callee)
                result = self._emit_expr(func.body.statements[-1].value, callee)
                return self._materialize(Value(self._typed_code(result, dt), kind, dt))
            flow = self._tmp("_ff")
            self._line(f"{flow} = _FnFlow(L, {_NP_DTYPE[dt]})")
            fn_mask = self._tmp("_m")
            self._line(f"{fn_mask} = {self.mask}")
            fn_prebound = {p.name for p in func.params} | set(self.constants)
            for name in sorted(callee.divdecl - fn_prebound):
                py = callee.py.get(name)
                if not py:
                    py = f"v{self._next_id()}_{name}"
                    callee.py[name] = py
                self._line(f"{py} = None")
            saved = (self.mask, self.div, self.in_function, self.fnflow,
                     self.retdt, self.retref, self.loops)
            self.mask, self.div = fn_mask, True
            self.in_function, self.fnflow, self.retdt = True, flow, dt
            self.retref, self.loops = f"{flow}.returned", []
            self._emit_block(func.body.statements, callee)
            (self.mask, self.div, self.in_function, self.fnflow,
             self.retdt, self.retref, self.loops) = saved
            out = self._tmp()
            self._line(f"{out} = {flow}.value")
            return Value(out, "v", dt)
        finally:
            self._inline_stack.pop()

    def _emit_stmt_in_function(self, stmt, callee: Scope) -> None:
        saved = self.in_function
        self.in_function = True
        try:
            self._emit_stmt(stmt, callee)
        finally:
            self.in_function = saved


# ---------------------------------------------------------------------------
# Kernel-level entry points
# ---------------------------------------------------------------------------
def lower_kernel(
    program: ast.Program,
    kernel_name: str | None = None,
    local_size: tuple[int, ...] = (1,),
) -> str:
    """Lower one kernel of ``program`` to specialized Python source."""
    return _Emitter(program, kernel_name, tuple(int(v) for v in local_size)).lower()


class CodegenKernel:
    """Executes one kernellang kernel through generated specialized source.

    One instance exists per :class:`~repro.clsim.kernel.Kernel`; the
    compiled pass functions are specialized per work-group shape on first
    use and kept on the instance (as is a shape's :class:`LoweringError`).
    """

    def __init__(self, program: ast.Program, kernel_name: str | None = None) -> None:
        self.program = program
        self.kernel_def = program.kernel(kernel_name)
        self.constants = KernelInterpreter(program, self.kernel_def.name).constants
        self.const_containers = {
            name: ConstantView(name, value.values)
            for name, value in self.constants.items()
            if isinstance(value, _ConstantArray)
        }
        self._fns: dict = {}

    # ------------------------------------------------------------------
    def function(self, local_size: tuple[int, ...]):
        """The compiled pass function for one work-group shape."""
        local_size = tuple(local_size)
        fn = self._fns.get(local_size)
        if fn is None:
            try:
                fn = self._build(local_size)
            except LoweringError as exc:
                fn = exc
            self._fns[local_size] = fn
        if isinstance(fn, LoweringError):
            raise fn.with_traceback(None)  # keep the remembered error's traceback bounded
        return fn

    def _build(self, local_size: tuple[int, ...]):
        from ..obs.trace import get_tracer

        name = self.kernel_def.name
        with get_tracer().span(
            "codegen.lower", category="lowering", kernel=name, local_size=list(local_size)
        ):
            source = lower_kernel(self.program, name, local_size)
            namespace = _exec_namespace()
            try:
                exec(compile(source, f"<repro-codegen:{name}>", "exec"), namespace)
            except Exception as exc:
                # Not chained: the error is remembered per shape, and a
                # cause would keep this frame's namespace alive with it.
                raise LoweringError(
                    f"generated source for kernel {name!r} failed to compile: {exc!r}"
                ) from None
        return namespace["kernel_pass"]

    # ------------------------------------------------------------------
    def run(self, args: dict, ndrange, batch: int, stats, local_mem_per_cu: int) -> None:
        """Run every work group of ``batch`` stacked launches in passes.

        ``args`` binds every argument (pointers to ``batch``-segment
        :class:`~repro.clsim.memory.SegmentedBuffer` arenas when
        ``batch > 1``).  Barriers and local-memory counters accumulate into
        ``stats``; a pass of ``n`` groups allocates its tiles against ``n``
        times the per-CU budget, so a tile that overflows one group's
        budget still raises.
        """
        fn = self.function(ndrange.local_size)
        group = ndrange.work_group_size
        slots = batch * ndrange.total_groups
        per_pass = max(1, MAX_PASS_LANES // group)
        for first in range(0, slots, per_pass):
            count = min(per_pass, slots - first)
            local = LocalMemory(local_mem_per_cu * count)
            rt = _pass_runtime(self, args, ndrange, batch, first, count, local)
            with np.errstate(all="ignore"):
                # The barrier rule: every group of the pass hit each barrier.
                stats.barriers += fn(rt) * count
            stats.local_counters.merge(local.counters)


def codegen_kernel(kernel: Kernel) -> CodegenKernel:
    """Return (building and caching on first use) the codegen form of a
    :class:`~repro.clsim.kernel.Kernel` that carries its kernellang AST."""
    cached = getattr(kernel, "_codegen", None)
    if cached is not None:
        return cached
    program = getattr(kernel, "ast_program", None)
    if program is None:
        raise InterpreterError(
            f"kernel {kernel.name!r} carries no kernellang AST; only kernels "
            "compiled from kernellang source can run on the codegen backend"
        )
    compiled = CodegenKernel(program, getattr(kernel, "ast_kernel_name", None))
    kernel._codegen = compiled
    return compiled
