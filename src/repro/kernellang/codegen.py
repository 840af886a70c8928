"""Codegen execution backend: kernellang AST -> specialized NumPy Python source.

The reference interpreter (:mod:`repro.kernellang.interpreter`) runs every
work-item as a Python generator — precise, but slow.  This module executes
a whole work group at once, SIMT-style, the way array-DSL compilers do: it
lowers each (kernel source, work-group shape, batched?) triple **once**
into flat Python source built from batched NumPy operations, compiles it
with ``compile()``/``exec()`` and runs the resulting function per work
group.

The lowering is a pretty-printer over the pass pipeline
(:mod:`repro.kernellang.passes` — see ``docs/ir.md``):

* the **uniformity analysis**
  (:class:`~repro.kernellang.passes.uniformity.UniformityAnalysis`, which
  this module's emitter subclasses) classifies every variable as *uniform*
  (same value in every lane: literals, scalar kernel arguments,
  ``get_group_id`` / size queries, and anything computed only from those)
  or *varying* (per-lane).  Uniform values become plain Python scalars —
  their arithmetic follows the scalar interpreter exactly — and
  uniform-trip-count loops become plain Python loops with no mask
  machinery at all;
* varying values are ``(lanes,)`` ``int64``/``float64`` arrays (matching
  the interpreter's Python ``int``/``float`` semantics, including C
  truncation for integer division and assignments to integer variables);
  divergent ``if``/``for``/``while``/``do-while`` (including
  ``break``/``continue``/``return``) are emitted as the **mask-insertion
  pass** (:mod:`repro.kernellang.passes.masking`) — per-lane masks until
  every lane retires, which reproduces data-dependent loops such as
  Median's insertion sort — and the generated source calls back into the
  pass's merge/arithmetic kernels by name, so outputs, error behaviour and
  :class:`~repro.clsim.executor.ExecutionStats` counters stay
  bit-identical to the interpreter;
* global buffers / local tiles / private arrays become the memory
  views (:mod:`repro.kernellang.passes.memory`), with fast unmasked entry
  points selected statically for full-mask code, recording exactly one
  access per active lane;
* helper functions are inlined at the call site (straight-line helpers
  keep uniformity; anything with control flow is inlined in masked form);
* the work-group shape is baked in (``get_local_size`` folds to a
  constant), and a separate variant is lowered for batched launches whose
  containers are the **batching transform**'s segmented views
  (:mod:`repro.kernellang.passes.batching`), routing every lane into its
  own request segment.

``barrier()`` must be reached by *all* lanes of the group at the *same
statement* — a barrier is then a plain sequence point, since statements
already execute group-wide.  This is deliberately stricter than the
lock-step interpreter, which only requires equal barrier *counts* per
work-item and therefore accepts balanced divergent barriers
(``if (c) { barrier(); } else { barrier(); }``); rather than silently
drifting on that pattern, the generated code raises
:class:`~repro.clsim.errors.BarrierDivergenceError`.  None of the bundled
or generated kernels use it (their barriers are all at the top level).

Lane arithmetic is IEEE double, exactly like the interpreter's Python
floats.  ``sqrt``/``rsqrt``/``native_divide`` use NumPy's
correctly-rounded kernels; the remaining transcendentals are applied
through :mod:`math` per active lane, because NumPy's vector routines are
not guaranteed to round identically to libm.

Compiled group functions live on the :class:`CodegenKernel` of each
:class:`~repro.clsim.kernel.Kernel`, which
:func:`repro.core.perforator.build_kernel` builds once per (kernel source,
configuration) and shares process-wide; lowered sources persist on disk
through :mod:`repro.api.artifacts`, so a new process skips lowering too.

Kernels the lowering cannot specialize (for example a non-literal dimension
argument to ``get_global_id``) raise :class:`LoweringError`; the ``codegen``
execution backend then runs that launch on the reference interpreter
(decided once per launch, before any lane has run), so the backend never
changes observable behaviour.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..clsim.errors import BarrierDivergenceError
from ..clsim.kernel import Kernel, KernelContext
from ..clsim.memory import Buffer
from . import ast
from .builtins import (
    BUILTIN_CONSTANTS,
    CONTEXT_BUILTINS,
    SYNC_BUILTINS,
    is_builtin,
)
from .clgen import generate as clgen_generate
from .errors import InterpreterError
from .interpreter import KernelInterpreter, _ConstantArray
from .ir import (
    BUILTIN_RESULT_DT,
    CONTEXT_FIELDS,
    LoweringError,
    Scope,
    ScopeView,
    Value,
    join_kind,
    promote_dt,
)
from .passes.batching import SegLocalView, lane_requests, segmented_global_view
from .passes.masking import (
    VECTOR_BUILTINS,
    FnFlow,
    VectorFallback,
    builtin_impl,
    decl_scalar,
    full_assign,
    int_truncate,
    masked_assign,
    merge_parts,
    uniform_assign,
    uniform_call,
    uniform_div,
    uniform_mod,
    varying_div,
    varying_mod,
)
from .passes.memory import ConstantView, GlobalView, LocalView, PrivateView
from .passes.uniformity import UniformityAnalysis
from .types import PointerType, ScalarType

_INT = np.int64
_FLOAT = np.float64

#: Bump when the lowering or the runtime contract changes: invalidates every
#: on-disk artifact (stale entries simply miss).
CODEGEN_FORMAT_VERSION = 2

__all__ = [
    "CODEGEN_FORMAT_VERSION",
    "CodegenKernel",
    "LoweringError",
    "artifact_key",
    "codegen_kernel",
    "lower_kernel",
]


# ---------------------------------------------------------------------------
# Runtime namespace of the generated source
# ---------------------------------------------------------------------------
def _exec_namespace() -> dict:
    """Globals dict the compiled artifact sources are executed in.

    The artifact source contains no imports: every runtime name resolves
    through this namespace.  (Real builtins are required — NumPy's truth
    tests reach for them — so artifact *integrity* rests on the content
    key and the header check, not on namespace isolation.)
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
        "_VF": VectorFallback,
        "_BI_IMPL": builtin_impl,
        "_ucall": uniform_call,
        "_udiv": uniform_div,
        "_umod": uniform_mod,
        "_vdiv": varying_div,
        "_vmod": varying_mod,
        "_vtrunc": int_truncate,
        "_uassign": uniform_assign,
        "_afull": full_assign,
        "_amask": masked_assign,
        "_decl_scalar": decl_scalar,
        "_merge_parts": merge_parts,
        "_FnFlow": FnFlow,
        "_IErr": InterpreterError,
        "_BDE": BarrierDivergenceError,
        "int": int,
        "float": float,
        "isinstance": isinstance,
        "min": min,
        "max": max,
        "abs": abs,
        "round": round,
    }


# ---------------------------------------------------------------------------
# Per-group runtime state handed to the generated function
# ---------------------------------------------------------------------------
_LID_CACHE: dict = {}
_MASK_CACHE: dict = {}


def _lid_arrays(local_size: tuple[int, ...], batch: int):
    """Per-dimension local-id index arrays (cached, read-only by contract)."""
    key = (local_size, batch)
    cached = _LID_CACHE.get(key)
    if cached is not None:
        return cached
    rank = len(local_size)
    group = 1
    for extent in local_size:
        group *= extent
    lids = []
    for dim in range(rank):
        inner = 1
        for lower in range(dim):
            inner *= local_size[lower]
        lid = np.tile(np.repeat(np.arange(local_size[dim], dtype=_INT), inner), group // (inner * local_size[dim]))
        lids.append(np.tile(lid, batch) if batch > 1 else lid)
    lane_request = lane_requests(batch, group)
    result = (group, tuple(lids), lane_request)
    _LID_CACHE[key] = result
    return result


def _masks(lanes: int):
    cached = _MASK_CACHE.get(lanes)
    if cached is None:
        cached = _MASK_CACHE[lanes] = (
            np.ones(lanes, dtype=bool),
            np.zeros(lanes, dtype=bool),
        )
    return cached


class _Runtime:
    """Everything a generated group function reads: ids, sizes, containers."""

    __slots__ = (
        "L", "M0", "Z", "gid", "lid", "grp", "gsz", "lsz", "ngrp",
        "c", "s", "local",
    )


def _build_runtime(
    constants_containers: dict,
    params,
    ctx: KernelContext,
    ndrange,
    group_id: tuple[int, ...],
    batch: int | None,
) -> _Runtime:
    rt = _Runtime()
    effective_batch = batch or 1
    group, lids, lane_request = _lid_arrays(ndrange.local_size, effective_batch)
    rt.L = group * effective_batch
    rt.M0, rt.Z = _masks(rt.L)
    rt.lid = lids
    rt.gid = tuple(
        lids[dim] + group_id[dim] * ndrange.local_size[dim]
        for dim in range(ndrange.rank)
    )
    rt.grp = tuple(int(g) for g in group_id)
    rt.gsz = ndrange.global_size
    rt.lsz = ndrange.local_size
    rt.ngrp = ndrange.num_groups
    rt.c = dict(constants_containers)
    rt.s = {}
    for param in params:
        value = ctx.arg(param.name)
        if isinstance(param.param_type, PointerType):
            if not isinstance(value, Buffer):
                raise InterpreterError(
                    f"pointer argument {param.name!r} must be bound to a Buffer"
                )
            if batch is None:
                rt.c[param.name] = GlobalView(value)
            else:
                rt.c[param.name] = segmented_global_view(value, batch, lane_request)
        else:
            rt.s[param.name] = value
    if batch is None:
        rt.local = lambda name, length: LocalView(ctx.local, name, length)
    else:
        rt.local = lambda name, length: SegLocalView(
            ctx.local, name, length, lane_request * length, batch
        )
    return rt


# ---------------------------------------------------------------------------
# Lowering: AST -> specialized Python source
# ---------------------------------------------------------------------------
class _Emitter(UniformityAnalysis):
    """Emission half of the lowering (classification lives in the base)."""

    def __init__(
        self,
        program: ast.Program,
        kernel_name: str | None,
        local_size: tuple[int, ...],
        batched: bool,
    ) -> None:
        super().__init__(program, kernel_name, local_size, batched)
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
        """Module-level binding in the artifact (built-in lookups etc.)."""
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

    def _idx_code(self, v: Value) -> str:
        """Index operand: int scalar (uniform) or int64 array (varying)."""
        if v.kind == "u":
            return v.code if v.dt == "i" else f"int({v.code})"
        if v.dt == "i":
            return v.code
        return f"_np.asarray({v.code}).astype(_I)"

    def _int_code(self, v: Value) -> str:
        if v.kind == "u":
            return v.code if v.dt == "i" else f"int({v.code})"
        return v.code if v.dt == "i" else f"({v.code}).astype(_I)"

    # -- entry point ------------------------------------------------------
    def lower(self) -> str:
        scope = self.kernel_scope()
        self._classify(self.kernel_def.body, scope, False, False)

        self.depth = 1
        self._emit_block(self.kernel_def.body.statements, scope)
        self._line("return _b")
        body = self.lines

        out: list[str] = [
            f"# repro-codegen artifact (format v{CODEGEN_FORMAT_VERSION})",
            f"# kernel: {self.kernel_def.name}  local_size={self.local_size}"
            f"  batched={self.batched}",
        ]
        for name in sorted(self.binds):
            out.append(f"{name} = {self.binds[name]}")
        out.append("")
        out.append("def kernel_group(rt):")
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
            value = self._emit_expr(stmt.expr, scope)
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
        if self.div or self.has_masked_return:
            check = f"not {self.mask}.all()"
            if self.has_masked_return:
                check = f"_ret.any() or {check}"
            self._line(f"if {check}:")
            self._push()
            self._line(
                'raise _BDE("work-items of the group reached different '
                'numbers of barriers")'
            )
            self._pop()
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
                    for position, value_expr in enumerate(decl.init.values):
                        value = self._emit_expr(value_expr, scope)
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
        is_int = isinstance(decl.var_type, ScalarType) and decl.var_type.is_integer
        py = scope.py.get(name)
        if not py:
            py = f"v{self._next_id()}_{name}"
            scope.py[name] = py
        if scope.kind.get(name, "u") == "u":
            code = value.code
            if is_int:
                code = f"int({code})"
            self._line(f"{py} = {code}")
            return
        # Varying slot: promote uniforms, apply the declared-int cast.
        if value.kind == "u":
            code = f"int({value.code})" if is_int else value.code
            code = f"_np.full(L, {code})"
        else:
            code = value.code
            if is_int:
                code = f"_np.asarray({code}).astype(_I)"
        if self.div:
            self._line(f"{py} = _decl_scalar({py}, {code}, {self.mask})")
        else:
            self._line(f"{py} = {code}")

    def _next_id(self) -> int:
        self.counter += 1
        return self.counter

    def _emit_if(self, stmt: ast.IfStmt, scope: Scope) -> None:
        cond = self._emit_expr(stmt.condition, scope)
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
        self._line(f"{test} = ({cond.code}) != 0")
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
            cond = self._emit_expr(stmt.condition, scope)
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
            value = self._emit_expr(step, scope)
            if not value.code.isidentifier():
                self._line(value.code)
        if not check_first and stmt.condition is not None:
            cond = self._emit_expr(stmt.condition, scope)
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
            cond = self._emit_expr(stmt.condition, scope)
            self._line(f"{active} = {active} & (({cond.code}) != 0)")
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
            value = self._emit_expr(step, scope)
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
            value = self._emit_expr(stmt.value, scope)
        if self.in_function:
            arr = "None" if value is None else self._promote(value)
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
                return Value(py, scope.kind[name], scope.dt.get(name, "x"))
            if name in BUILTIN_CONSTANTS:
                value = BUILTIN_CONSTANTS[name]
                return Value(repr(value), "u", "i" if isinstance(value, int) else "f")
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
                return Value(f"_np.asarray({value.code}).astype(_I)", "v", "i")
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
            dt = promote_dt(old.dt, "i") if old.dt != "x" else "x"
            new_t = self._tmp()
            self._line(f"{new_t} = {old_t} + ({delta})")
            self._store_to(expr.operand, Value(new_t, old.kind, dt), scope)
            result = old_t if expr.postfix else new_t
            return Value(result, old.kind, old.dt if expr.postfix else dt)
        operand = self._emit_expr(expr.operand, scope)
        if expr.op == "-":
            return Value(f"(-({operand.code}))", operand.kind, operand.dt)
        if expr.op == "+":
            return operand
        if expr.op == "!":
            if operand.kind == "u":
                return Value(f"(0 if {operand.code} else 1)", "u", "i")
            return Value(f"(~(({operand.code}) != 0)).astype(_I)", "v", "i")
        if expr.op == "~":
            return Value(f"(~{self._int_code(operand)})", operand.kind, "i")
        raise self._unsupported(f"unary operator {expr.op!r}")

    def _emit_binary(self, expr: ast.BinaryOp, scope: Scope) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._emit_logical(expr, scope)
        left = self._emit_expr(expr.left, scope)
        right = self._emit_expr(expr.right, scope)
        return self._apply_binary(op, left, right)

    def _apply_binary(self, op: str, left: Value, right: Value) -> Value:
        kind = join_kind(left.kind, right.kind)
        if op == "/":
            if kind == "u":
                return Value(f"_udiv({left.code}, {right.code})", "u",
                          self._c_binop_dt("/", left.dt, right.dt))
            return Value(f"_vdiv({left.code}, {right.code}, {self.mask})", "v",
                      self._c_binop_dt("/", left.dt, right.dt))
        if op == "%":
            if kind == "u":
                return Value(f"_umod({left.code}, {right.code})", "u",
                          self._c_binop_dt("%", left.dt, right.dt))
            return Value(f"_vmod({left.code}, {right.code}, {self.mask})", "v",
                      self._c_binop_dt("%", left.dt, right.dt))
        if op in ("+", "-", "*"):
            return Value(f"(({left.code}) {op} ({right.code}))", kind,
                      promote_dt(left.dt, right.dt))
        if op in ("<", ">", "<=", ">=", "==", "!="):
            if kind == "u":
                return Value(f"int(({left.code}) {op} ({right.code}))", "u", "i")
            return Value(f"((({left.code}) {op} ({right.code})).astype(_I))", "v", "i")
        if op in ("&", "|", "^", "<<", ">>"):
            lc, rc = self._int_code(left), self._int_code(right)
            return Value(f"(({lc}) {op} ({rc}))", kind, "i")
        raise self._unsupported(f"binary operator {op!r}")

    def _emit_logical(self, expr: ast.BinaryOp, scope: Scope) -> Value:
        is_and = expr.op == "&&"
        left = self._emit_expr(expr.left, scope)
        kind, _ = self._c_expr(expr, ScopeView(scope), self.div)
        if kind == "u":
            captured, right = self._capture_expr(
                lambda: self._emit_expr(expr.right, scope)
            )
            if not captured:
                if is_and:
                    code = f"((1 if ({right.code}) else 0) if ({left.code}) else 0)"
                else:
                    code = f"(1 if ({left.code}) else (1 if ({right.code}) else 0))"
                return Value(code, "u", "i")
            out = self._tmp()
            if is_and:
                self._line(f"{out} = 0")
                self._line(f"if ({left.code}):")
                self._push()
                self._splice(captured)
                self._line(f"{out} = 1 if ({right.code}) else 0")
                self._pop()
            else:
                self._line(f"{out} = 1")
                self._line(f"if not ({left.code}):")
                self._push()
                self._splice(captured)
                self._line(f"{out} = 1 if ({right.code}) else 0")
                self._pop()
            return Value(out, "u", "i")
        # Varying result: masked short-circuit of the right operand.
        out = self._tmp()
        self._line(f"{out} = _np.zeros(L, _I)")
        right_mask = self._tmp("_m")
        test = self._tmp("_c")
        self._line(f"{test} = (({left.code}) != 0)")
        if left.kind == "u":
            if is_and:
                self._line(f"{right_mask} = {self.mask} if {test} else _Z")
            else:
                self._line(f"if {test}:")
                self._push()
                self._line(f"{out}[{self.mask}] = 1")
                self._pop()
                self._line(f"{right_mask} = _Z if {test} else {self.mask}")
        else:
            if is_and:
                self._line(f"{right_mask} = {self.mask} & {test}")
            else:
                self._line(f"{out}[{self.mask} & {test}] = 1")
                self._line(f"{right_mask} = {self.mask} & ~{test}")
        self._line(f"if {right_mask}.any():")
        self._push()
        saved_mask, saved_div = self.mask, self.div
        self.mask, self.div = right_mask, True
        right = self._emit_expr(expr.right, scope)
        self._line(f"{out}[{right_mask} & (({right.code}) != 0)] = 1")
        self.mask, self.div = saved_mask, saved_div
        self._pop()
        return Value(out, "v", "i")

    def _emit_assignment(self, expr: ast.Assignment, scope: Scope) -> Value:
        value = self._emit_expr(expr.value, scope)
        if expr.op != "=":
            current = self._emit_expr(expr.target, scope)
            value = self._apply_binary(expr.op[:-1], current, value)
        value = self._materialize(value)
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
        if name not in scope.kind:
            raise self._unsupported(f"assignment to undefined variable {name!r}")
        py = scope.py.get(name)
        if not py:
            raise self._unsupported(f"assignment to {name!r} before its declaration")
        target_dt = scope.dt.get(name, "x")
        if scope.kind[name] == "u":
            if target_dt == "i" and value.dt == "f":
                self._line(f"{py} = int({value.code})")
            elif target_dt == "x" or value.dt == "x":
                self._line(f"{py} = _uassign({py}, {value.code})")
            else:
                self._line(f"{py} = {value.code}")
            return
        code = self._promote(value)
        if self.div:
            self._line(f"{py} = _amask({py}, {code}, {self.mask})")
            return
        if target_dt == "i":
            if value.dt == "f" or (value.kind == "u" and value.dt != "i"):
                code = (f"int({value.code})" if value.kind == "u"
                        else f"({value.code}).astype(_I)")
                code = f"_np.full(L, {code})" if value.kind == "u" else code
                self._line(f"{py} = {code}")
            elif value.dt == "x":
                self._line(f"{py} = _vtrunc({code})")
            else:
                self._line(f"{py} = {code}")
        elif target_dt == "x":
            self._line(f"{py} = _afull({py}, {code})")
        else:
            self._line(f"{py} = {code}")

    def _container(self, base, scope: Scope):
        value = self._emit_expr(base, scope)
        if value.kind != "c":
            raise self._unsupported("indexing a non-array value")
        return value

    def _store_index(self, target: ast.Index, value: Value, scope: Scope) -> None:
        container = self._container(target.base, scope)
        index = self._emit_expr(target.index, scope)
        space = container.dt  # the container Value carries the space in .dt
        py = container.code
        seg = self.batched and space in ("global", "local")
        if index.kind == "u" and not seg and space != "private":
            idx = self._idx_code(index)
            if self.div:
                self._line(f"{py}.storeum({idx}, {value.code}, {self.mask})")
            else:
                self._line(f"{py}.storeu({idx}, {value.code}, L)")
            return
        idx = self._idx_code(index)
        if self.div:
            self._line(f"{py}.storem({idx}, {value.code}, {self.mask})")
        else:
            self._line(f"{py}.storef({idx}, {value.code})")

    def _emit_load_index(self, expr: ast.Index, scope: Scope) -> Value:
        container = self._container(expr.base, scope)
        index = self._emit_expr(expr.index, scope)
        space = container.dt
        py = container.code
        seg = self.batched and space in ("global", "local")
        varying_result = space == "private" or seg or index.kind == "v"
        idx = self._idx_code(index)
        if index.kind == "u" and not seg and space != "private":
            if self.div:
                code = f"{py}.loadum({idx}, {self.mask})"
            else:
                code = f"{py}.loadu({idx}, L)"
            return Value(code, "u", "f")
        if self.div:
            code = f"{py}.loadm({idx}, {self.mask})"
        else:
            code = f"{py}.loadf({idx})"
        return Value(code, "v" if varying_result else "u", "f")

    def _emit_ternary(self, expr: ast.Ternary, scope: Scope) -> Value:
        cond = self._emit_expr(expr.condition, scope)
        if cond.kind == "u":
            cap_a, a = self._capture_expr(lambda: self._emit_expr(expr.if_true, scope))
            cap_b, b = self._capture_expr(lambda: self._emit_expr(expr.if_false, scope))
            kind = join_kind(a.kind, b.kind)
            if not cap_a and not cap_b and kind == "u":
                return Value(
                    f"(({a.code}) if ({cond.code}) else ({b.code}))",
                    "u", promote_dt(a.dt, b.dt),
                )
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
            return Value(out, kind, promote_dt(a.dt, b.dt))
        test = self._tmp("_c")
        self._line(f"{test} = (({cond.code}) != 0)")
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
        self._line(f"{out} = _merge_parts(L, {parts})")
        return Value(out, "v", promote_dt(
            self._c_expr(expr.if_true, ScopeView(scope), True)[1],
            self._c_expr(expr.if_false, ScopeView(scope), True)[1],
        ))

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
            if field in ("gid", "lid"):
                return Value(ident, "v", "i")
            return Value(ident, "u", "i")
        if name in SYNC_BUILTINS:
            raise self._unsupported("barrier()/mem_fence() inside an expression")
        if is_builtin(name):
            args = [self._emit_expr(arg, scope) for arg in call.args]
            if any(arg.kind == "c" for arg in args):
                raise self._unsupported(f"array argument to built-in {name!r}")
            kinds = [arg.kind for arg in args]
            dts = [arg.dt for arg in args]
            cls = BUILTIN_RESULT_DT.get(name, "x")
            dt = {"p": promote_dt(*dts) if dts else "i", "f": "f",
                  "i": "i", "x": "x"}[cls]
            uniform = not kinds or join_kind(*kinds) == "u"
            if uniform:
                impl = self._bind(f"_bi_{name}", f"_BI_IMPL({name!r})")
                arg_code = ", ".join(arg.code for arg in args)
                return Value(f"_ucall({name!r}, {impl}, {arg_code})", "u", dt)
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
        arg_sigs = tuple(
            ("c", v.dt) if v.kind == "c" else (v.kind, v.dt) for v in arg_values
        )
        kind, dt, simple = self._fn_summary(func, arg_sigs, self.div)
        callee = self._callee_scope(func, arg_sigs)
        for param, v in zip(func.params, arg_values):
            if v.kind == "c":
                callee.py[param.name] = v.code
            else:
                bound = self._tmp("_a")
                self._line(f"{bound} = {v.code}")
                callee.py[param.name] = bound
        self._inline_stack.append(func.name)
        try:
            if simple:
                self._classify(func.body, callee, self.div, in_function=True)
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
                return self._materialize(Value(result.code, kind, dt))
            self._classify(func.body, callee, True, in_function=True)
            flow = self._tmp("_ff")
            self._line(f"{flow} = _FnFlow(L)")
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
                     self.retref, self.loops)
            self.mask, self.div = fn_mask, True
            self.in_function, self.fnflow = True, flow
            self.retref, self.loops = f"{flow}.returned", []
            self._emit_block(func.body.statements, callee)
            (self.mask, self.div, self.in_function, self.fnflow,
             self.retref, self.loops) = saved
            out = self._tmp()
            self._line(f"{out} = {flow}.result()")
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
    batched: bool = False,
) -> str:
    """Lower one kernel of ``program`` to specialized Python source."""
    lowering = _Emitter(program, kernel_name, tuple(int(v) for v in local_size), batched)
    return lowering.lower()


def artifact_key(
    cl_source: str,
    kernel_name: str,
    local_size: tuple[int, ...],
    batched: bool,
) -> str:
    """Content hash identifying one lowered artifact.

    Keyed on the canonical (OpenCL C) form of the program — which embeds
    the perforation configuration, since the transforms rewrote the AST —
    plus the kernel name, the baked work-group shape, the batched flag and
    the lowering format version.
    """
    blob = (
        f"repro-codegen|v{CODEGEN_FORMAT_VERSION}|{kernel_name}|"
        f"{tuple(local_size)}|{int(batched)}|{cl_source}"
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _compile_artifact(source: str, key: str):
    """Compile + exec an artifact source; ``None`` if it is corrupt.

    Any failure counts — not just ``SyntaxError``: a damaged artifact can
    parse fine yet raise at module-exec time, and must still be treated as
    a miss so the caller drops it and lowers fresh.
    """
    try:
        code = compile(source, f"<repro-codegen:{key[:12]}>", "exec")
        namespace = _exec_namespace()
        exec(code, namespace)
        fn = namespace.get("kernel_group")
        return fn if callable(fn) else None
    except Exception:
        return None


class CodegenKernel:
    """Executes one kernellang kernel through generated specialized source.

    One instance exists per :class:`~repro.clsim.kernel.Kernel`; the actual
    compiled group functions are specialized per (work-group shape,
    batched?) on first use and kept on the instance.
    """

    def __init__(self, program: ast.Program, kernel_name: str | None = None) -> None:
        self.program = program
        self.kernel_def = program.kernel(kernel_name)
        self.constants = KernelInterpreter(program, self.kernel_def.name).constants
        self.cl_source = clgen_generate(program)
        self.const_containers = {
            name: ConstantView(name, value.values)
            for name, value in self.constants.items()
            if isinstance(value, _ConstantArray)
        }
        self._fns: dict = {}

    # ------------------------------------------------------------------
    def function(self, local_size: tuple[int, ...], batched: bool):
        """The compiled group function for one work-group shape."""
        shape_key = (tuple(local_size), batched)
        fn = self._fns.get(shape_key)
        if fn is not None:
            return fn
        from ..api.artifacts import default_cache
        from ..obs.trace import get_tracer

        key = artifact_key(self.cl_source, self.kernel_def.name, shape_key[0], batched)
        with get_tracer().span(
            "codegen.artifact",
            category="lowering",
            kernel=self.kernel_def.name,
            local_size=list(shape_key[0]),
            batched=batched,
        ) as span:
            cache = default_cache()
            source = cache.get(key) if cache is not None else None
            fn = None if source is None else _compile_artifact(source, key)
            from_cache = fn is not None
            if source is not None and fn is None:
                # Corrupt/stale on-disk artifact: drop it and lower fresh.
                cache.invalidate(key)
            if fn is None:
                source = lower_kernel(self.program, self.kernel_def.name, shape_key[0], batched)
                fn = _compile_artifact(source, key)
                if fn is None:
                    raise LoweringError(
                        f"generated source for kernel {self.kernel_def.name!r} "
                        f"failed to compile"
                    )
                if cache is not None:
                    cache.put(key, source)
            span.set(source="disk-cache" if from_cache else "lowered")
        self._fns[shape_key] = fn
        return fn

    # ------------------------------------------------------------------
    def run_group(self, ctx: KernelContext, ndrange, group_id) -> int:
        """Run all work-items of one group; returns the number of barriers."""
        fn = self.function(ndrange.local_size, batched=False)
        rt = _build_runtime(
            self.const_containers, self.kernel_def.params, ctx, ndrange,
            tuple(group_id), None,
        )
        with np.errstate(all="ignore"):
            return fn(rt)

    def run_group_batch(self, ctx: KernelContext, ndrange, group_id, batch: int) -> int:
        """Run one work group of ``batch`` stacked compatible launches."""
        if batch <= 0:
            raise InterpreterError(f"batch must be positive, got {batch}")
        fn = self.function(ndrange.local_size, batched=True)
        rt = _build_runtime(
            self.const_containers, self.kernel_def.params, ctx, ndrange,
            tuple(group_id), batch,
        )
        with np.errstate(all="ignore"):
            return fn(rt) * batch


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
