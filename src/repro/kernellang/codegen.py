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
  constant, ``get_local_id`` is bounded by it);
* the **range fact** (:mod:`repro.kernellang.passes.ranges`): the emitter
  carries an interval environment for int values -- on the active lanes
  and in every lane's slot -- narrowed by tests and settled at loops by a
  fixpoint over emission rounds.  It turns counted loops that need masks (the
  perforation passes' staging loops) into *trip loops*, one bound value
  and at most one mask per trip, and drops the clamps, bounds checks,
  zero-divisor scans, mask computations and merges it proves unneeded,
  and values nothing reads (``docs/ir.md`` lists each rule and why it is
  unobservable).

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
    float_to_int,
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
from .passes import ranges
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
    trunc_div,
    uniform_call,
    varying_float_div,
    varying_float_to_int,
    varying_int_div,
    varying_mod,
)
from .passes.memory import ConstantView, PrivateView
from .passes.ranges import TOP, point
from .passes.uniformity import UniformityAnalysis, counted_loop, summarize
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
        "_trunc_div": trunc_div,
        "_f2i": varying_float_to_int,
        "_f2iu": float_to_int,
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
def _is_int_expr(expr) -> bool:
    return isinstance(expr.ctype, ScalarType) and expr.ctype.is_integer


def _is_bool(ctype) -> bool:
    return isinstance(ctype, ScalarType) and ctype.name == "bool"


def _join_all(envs):
    """Join of the environments at the ends of a construct's paths."""
    out = envs[0]
    for env in envs[1:]:
        out = ranges.env_join(out, env)
    return out


#: The folded predicates (uniform Python bools).
_TRUE = "True"
_FALSE = "False"

#: A fixpoint over a loop stops widening after this many rounds: by then
#: every bound that still moves is unbounded.
_MAX_ROUNDS = 8


class _Emitter(UniformityAnalysis):
    """Emission half of the lowering (classification lives in the base).

    Alongside the source it carries the range environment ``env`` (emitted
    variable name -> ``(active, every)`` intervals, see
    :mod:`~repro.kernellang.passes.ranges`; ``None`` where no lane gets),
    the mask each varying variable was declared under (``decl_mask``),
    the known length of each local, private and constant array
    (``lengths``) and the active ranges each comparison's operands had
    where it was last emitted (``compared``), which the tests on it narrow
    against.  A test is narrowed right after it is emitted; a comparison
    it did not emit this time (the right operand of a decided ``&&`` or
    ``||``) is narrowed only on the side no lane reaches, where any fact
    holds.
    """

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
        self.retctype = None  # the inlined helper's return type
        self.retref: str | None = None
        self.loops: list[dict] = []

        # Range facts.
        self.env: dict | None = {}
        self.decl_mask: dict[str, str] = {}
        self.lengths: dict[str, int] = {}
        self.compared: dict[int, tuple] = {}

    def _summary(self, node):
        """The syntactic :class:`~repro.kernellang.passes.uniformity.Summary`
        of ``node`` (computed once per node and lowering)."""
        return summarize(node, self.summaries)

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

    # -- range facts ------------------------------------------------------
    @staticmethod
    def _active(v: Value):
        return v.rng[0] if v.rng is not None else TOP

    @staticmethod
    def _every(v: Value):
        return v.rng[1] if v.rng is not None else TOP

    @staticmethod
    def _fact(active, every, kind: str = "v"):
        """A fact (``None`` for nothing known); a uniform value is the same
        in every lane's slot, so its ``every`` is its ``active``."""
        if kind == "u":
            every = active
        if active == TOP and every == TOP:
            return None
        return (active, every)

    def _lookup(self, py: str, kind: str):
        fact = self.env.get(py) if self.env is not None else None
        if fact is not None and kind == "u":
            return (fact[0], fact[0])
        return fact

    def _set_fact(self, py: str, fact) -> None:
        """Record ``py``'s fact in a new environment: the one it replaces
        may be a branch's or a loop's snapshot."""
        if self.env is None:
            return
        env = dict(self.env)
        if fact is None:
            env.pop(py, None)
        else:
            env[py] = fact
        self.env = env

    def _narrowed(self, env, expr, truth: bool, scope: Scope):
        """``env`` on the lanes where the test ``expr`` is ``truth`` (active
        ranges only; ``None`` if no lane can be)."""
        if env is None or self._summary(expr).changes:
            return env
        return self._narrow(env, expr, truth, scope)

    def _narrow(self, env, expr, truth: bool, scope: Scope):
        if env is None:
            return None
        if isinstance(expr, ast.UnaryOp) and expr.op == "!":
            return self._narrow(env, expr.operand, not truth, scope)
        if isinstance(expr, ast.BinaryOp) and expr.op in ("&&", "||"):
            if (expr.op == "&&") == truth:
                return self._narrow(
                    self._narrow(env, expr.left, truth, scope), expr.right, truth, scope
                )
            return ranges.env_join(
                self._narrow(env, expr.left, truth, scope),
                self._narrow(
                    self._narrow(env, expr.left, not truth, scope), expr.right, truth, scope
                ),
            )
        if isinstance(expr, ast.BinaryOp) and expr.op in ranges.NEGATED:
            if not (_is_int_expr(expr.left) and _is_int_expr(expr.right)):
                return env
            op = expr.op if truth else ranges.NEGATED[expr.op]
            left, right = self.compared.get(id(expr), (TOP, TOP))
            env = self._narrow_var(env, expr.left, op, right, scope)
            return self._narrow_var(env, expr.right, ranges.SWAPPED[op], left, scope)
        if isinstance(expr, ast.Identifier) and _is_int_expr(expr):
            return self._narrow_var(env, expr, "!=" if truth else "==", point(0), scope)
        return env

    def _narrow_var(self, env, var, rel: str, other, scope: Scope):
        if env is None or not isinstance(var, ast.Identifier) or var.name not in scope.kind:
            return env
        py = scope.py.get(var.name)
        if not py:
            return env
        fact = env.get(py)
        active = fact[0] if fact is not None else TOP
        narrowed = ranges.narrow(active, rel, other)
        if narrowed is None:
            return None
        if narrowed == active:
            return env
        out = dict(env)
        out[py] = (narrowed, fact[1] if fact is not None else TOP)
        return out

    def _length(self, container: Value):
        return self.lengths.get(container.code)

    # -- value plumbing ---------------------------------------------------
    def _promote(self, v: Value) -> str:
        """Code for ``v`` as a (lanes,) array."""
        return f"_np.full(L, {v.code})" if v.kind == "u" else v.code

    def _typed_code(self, v: Value, dt: str) -> str:
        """Code for ``v`` converted to dtype ``dt`` (``"i"`` or ``"f"``), a
        scalar if ``v`` is uniform and lanes if it varies: to int truncates
        a float toward zero, as C does, and raises for the first active lane
        no int64 holds.  A value of type ``dt`` already is used as is, never
        copied."""
        if v.dt == dt:
            return v.code
        if dt == "i":
            if v.kind == "u":
                return f"_f2iu({v.code})"
            return f"_f2i({v.code}, {self.mask})"
        if v.kind == "u":
            return f"float({v.code})"
        return f"_np.asarray({v.code}).astype(_F)"

    def _typed(self, v: Value, dt: str) -> Value:
        """``v`` converted to dtype ``dt`` (see :meth:`_typed_code`)."""
        return v if v.dt == dt else Value(self._typed_code(v, dt), v.kind, dt)

    def _convert(self, v: Value, ctype) -> Value:
        """``v`` converted to C type ``ctype``: a ``bool`` holds 0 or 1."""
        if not _is_bool(ctype):
            return self._typed(self._as_value(v), ctype_dt(ctype))
        if v.dt != "b":
            if v.dt == "i" and ranges.within(self._active(v), 0, 1):
                return v
            v = self._test_of(v)
        return self._as_value(v)

    def _as_value(self, v: Value) -> Value:
        """A predicate as C's int 0/1; any other value as is."""
        if v.dt != "b":
            return v
        rng = v.rng if v.rng is not None else ((0, 1), (0, 1))
        if v.kind == "u":
            return Value(f"int({v.code})", "u", "i", rng)
        return Value(f"({v.code}).astype(_I)", "v", "i", rng)

    def _test_of(self, v: Value, node=None) -> Value:
        """A value as a predicate (C truthiness), folded where its range
        decides it and ``node``, the expression it came from, is quiet
        (see :meth:`_quiet`)."""
        if v.dt == "b":
            return v
        active = self._active(v)
        if node is not None and (ranges.excludes_zero(active) or active == (0, 0)):
            if self._quiet(node):
                bit = int(active != (0, 0))
                return Value(_TRUE if bit else _FALSE, "u", "b", (point(bit), point(bit)))
        return Value(f"(({v.code}) != 0)", v.kind, "b", ((0, 1), (0, 1)))

    def _quiet(self, *nodes) -> bool:
        """Whether evaluating ``nodes`` can neither raise nor change state
        (no load, division, float-to-int conversion, assignment or call
        that can raise): only then may a rule drop their code, which is
        inline in the value it emitted."""
        return not any(self._summary(node).loud for node in nodes)

    # -- entry point ------------------------------------------------------
    def lower(self) -> str:
        scope = self.kernel_scope()
        self._classify(self.kernel_def.body, scope, False, False)
        for name, value in self.constants.items():
            if isinstance(value, _ConstantArray):
                self.lengths[f"kc_{name}"] = value.length
            elif isinstance(value, int):
                self.env[f"k_{name}"] = (point(value), point(value))

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
            expr = stmt.expr
            if isinstance(expr, ast.Call) and expr.name in SYNC_BUILTINS:
                if expr.name == "barrier":
                    self._emit_barrier()
                return
            if (isinstance(expr, ast.Assignment) and isinstance(expr.target, ast.Identifier)
                    and expr.target.name in scope.unread):
                return  # nothing reads the variable, and setting it is quiet
            self._emit_effect(self._emit(expr, scope))
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

    def _emit_effect(self, value: Value) -> None:
        """An expression evaluated for its effects: a name or a literal has
        none left to run."""
        code = value.code
        if not (code.isidentifier() or code in (_TRUE, _FALSE)
                or code.lstrip("-").replace(".", "", 1).isdigit()):
            self._line(code)

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
            self._emit_array_decl(decl, scope)
            return
        if name in scope.unread:
            return  # nothing reads the variable, and setting it is quiet
        if decl.init is not None:
            value = self._emit_expr(decl.init, scope)
        else:
            value = Value("0", "u", "i", (point(0), point(0)))
        self._bind_decl(decl, value, scope)

    def _emit_array_decl(self, decl: ast.VarDecl, scope: Scope) -> None:
        name = decl.name
        size = self._emit_expr(decl.array_size, scope)
        if size.kind == "v":
            raise self._unsupported(f"array {name!r} with a varying size")
        known = None
        if isinstance(decl.array_size, ast.IntLiteral):
            if decl.array_size.value <= 0:
                raise self._unsupported(f"array {name!r} with size <= 0")
            length = str(decl.array_size.value)
            known = decl.array_size.value
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
            if size.dt == "i":
                known = ranges.constant(self._active(size))
        py = scope.py.get(name)
        if not py:
            py = f"a{self._next_id()}_{name}"
            scope.py[name] = py
        if known is not None and known > 0:
            self.lengths[py] = known
        else:
            self.lengths.pop(py, None)
        if decl.address_space == "local":
            scope.space[name] = "local"
            self._line(f"{py} = rt.local({name!r}, {length})")
            return
        scope.space[name] = "private"
        self._line(f"{py} = _CPrivate({name!r}, {length}, L)")
        if isinstance(decl.init, ast.InitList):
            for position, value_expr in enumerate(decl.init.values):
                value = self._convert(self._emit_expr(value_expr, scope), decl.var_type)
                index = Value(str(position), "u", "i", (point(position), point(position)))
                self._emit_store(Value(py, "c", "private"), index, value)

    def _bind_decl(self, decl: ast.VarDecl, value: Value, scope: Scope) -> None:
        """Bind scalar ``decl`` to ``value``, its already emitted initializer."""
        name = decl.name
        py = scope.py.get(name)
        if not py:
            py = f"v{self._next_id()}_{name}"
            scope.py[name] = py
        value = self._convert(value, decl.var_type)
        if value.dt == "i" and value.kind == "u":
            # A uniform int declaration always prints its conversion.
            code = f"int({value.code})"
        else:
            code = value.code
        kind = scope.kind.get(name, "u")
        if kind == "u":
            self._line(f"{py} = {code}")
            self._set_fact(py, self._fact(self._active(value), None, "u"))
            return
        # Varying slot: promote uniforms.
        if value.kind == "u":
            code = f"_np.full(L, {code})"
        if self.div and name in scope.shadowed:
            # The slot is the outer variable's too: its other lanes stay.
            old = self._lookup(py, kind)
            self._line(f"{py} = _decl_scalar({py}, {code}, {self.mask})")
            every = ranges.join(old[1], self._every(value)) if old else TOP
            self._set_fact(py, self._fact(self._active(value), every))
            return
        # Lanes inactive here never read this declaration's variable: they
        # are out of its scope, so the slot takes every lane's value.
        self._line(f"{py} = {code}")
        self.decl_mask[py] = self.mask
        every = self._every(value) if self.div else self._active(value)
        self._set_fact(py, self._fact(self._active(value), every))

    def _next_id(self) -> int:
        self.counter += 1
        return self.counter

    def _emit_if(self, stmt: ast.IfStmt, scope: Scope) -> None:
        cond = self._emit_test(stmt.condition, scope)
        env = self.env
        then_env = self._narrowed(env, stmt.condition, True, scope)
        else_env = self._narrowed(env, stmt.condition, False, scope)
        if cond.code in (_TRUE, _FALSE) and self._emit_decided_if(
            stmt, scope, cond.code == _TRUE, then_env if cond.code == _TRUE else else_env
        ):
            return
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

            ends = []

            def emit_uniform_branch(body, branch_env):
                self.mask, self.div = merge or entry_mask, entry_div
                self.env = branch_env
                self._emit_block(body.statements, scope)
                if merge is not None and self.mask != merge:
                    self._line(f"{merge} = {self.mask}")
                ends.append(self.env)

            self._line(f"if {cond.code}:")
            self._suite(lambda: emit_uniform_branch(stmt.then_body, then_env))
            if stmt.else_body is not None:
                self._line("else:")
                self._suite(lambda: emit_uniform_branch(stmt.else_body, else_env))
            else:
                ends.append(else_env)
            self.env = _join_all(ends)
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
        ends = []

        def emit_branch(mask_var, body, branch_env):
            self.mask, self.div = mask_var, True
            self.env = branch_env
            self._emit_block(body.statements, scope)
            if self.mask != mask_var:
                self._line(f"{mask_var} = {self.mask}")
            ends.append(self.env)

        self._line(f"if {then_mask}.any():")
        self._suite(lambda: emit_branch(then_mask, stmt.then_body, then_env))
        if stmt.else_body is not None:
            self._line(f"if {else_mask}.any():")
            self._suite(lambda: emit_branch(else_mask, stmt.else_body, else_env))
        if stmt.else_body is None:
            ends.append(else_env)
        self.env = _join_all(ends)
        if kills:
            merged = self._tmp("_m")
            self._line(f"{merged} = {then_mask} | {else_mask}")
            self.mask, self.div = merged, True
        else:
            self.mask, self.div = entry_mask, entry_div

    def _emit_decided_if(self, stmt: ast.IfStmt, scope: Scope, taken: bool, env) -> bool:
        """An ``if`` whose test the ranges decide: only the branch every lane
        takes is emitted, in line, under the entering mask.  A varying test
        keeps its body divergent (so the barrier rule is unchanged); a body
        that kills lanes keeps the general form.  Returns whether it did."""
        body = stmt.then_body if taken else stmt.else_body
        varying = self._c_expr(stmt.condition, ScopeView(scope), self.div) == "v"
        if body is not None and varying and self._contains_kills(body):
            return False
        if body is None:
            self.env = env
            return True
        entry_mask, entry_div = self.mask, self.div
        self.env = env
        if varying:
            self.div = True
        self._emit_block(body.statements, scope)
        if varying:
            self.mask, self.div = entry_mask, entry_div
        return True

    # -- loops --------------------------------------------------------------
    def _emit_loop(self, stmt, scope: Scope, init=None, step=None,
                   check_first: bool = True) -> None:
        masked = self._loop_masked(stmt, scope, self.div)
        shape = counted_loop(stmt, self.summaries) if isinstance(stmt, ast.ForStmt) else None
        if masked and shape is not None and self._trip_qualifies(stmt, scope, shape):
            decl = init.declarations[0]
            start = self._emit_expr(decl.init, scope)
            if start.dt == "i" and ranges.bounded(self._active(start)):
                self._emit_trip_loop(stmt, scope, decl, start, shape)
                return
            self._bind_decl(decl, start, scope)
        elif init is not None:
            self._emit_stmt(init, scope)
        head, settle = self._loop_head(stmt, scope, shape)
        emit = self._emit_masked_loop if masked else self._emit_uniform_loop
        self.env = self._settle(head, settle, lambda env: emit(stmt, scope, step, check_first, env))

    def _settle(self, head, settle: set, emit):
        """Emit a loop at the fixpoint of the varying variables in
        ``settle``; returns the environment at its exit.  ``emit(env)``
        emits the loop with ``env`` at its top and returns the
        environments at its back edge and at its exit.  A round whose back
        edge moves a bound of ``head`` is dropped, and the loop emitted
        again from the join; after the first round every bound that still
        moves is widened to unbounded.  (A dropped round's temporaries are
        numbered again; a built-in binding or id it alone used stays,
        unused.)"""
        entry = self.mask, self.div, self.counter
        for round_ in range(_MAX_ROUNDS):
            mark = len(self.lines)
            back, exit_ = emit(head)
            if not settle:
                return exit_
            joined = ranges.env_join(head, back)
            if round_:
                joined = ranges.env_widen(head, joined)
            if joined == head:
                return exit_
            del self.lines[mark:]
            self.mask, self.div, self.counter = entry
            head = joined
        return emit({name: fact for name, fact in head.items() if name not in settle})[1]

    def _trip_qualifies(self, stmt, scope: Scope, shape) -> bool:
        """Whether a masked counted loop lowers to trips: it declares its
        variable, and its body has no return, no break or continue of its
        own and no barrier (the barrier rule is unchanged)."""
        return (
            isinstance(stmt.init, ast.DeclStmt)
            and shape[0] not in scope.shadowed
            and not self._count_returns(stmt.body)
            and not self._has_direct(stmt.body, ast.BreakStmt)
            and not self._has_direct(stmt.body, ast.ContinueStmt)
            and not self._summary(stmt.body).barrier
        )

    def _loop_head(self, stmt, scope: Scope, shape):
        """The environment at the top of a loop's first iteration, and the
        varying variables whose facts need a fixpoint over the loop.

        A counted loop's variable is bounded in closed form; a uniform
        variable the loop assigns is left unbounded (its checks are scalar
        and cheap); a varying one is settled by :meth:`_emit_loop`."""
        env = self.env
        if env is None:
            return None, set()
        body = stmt.body
        declared = self._summary(body).declared
        changed = (self._summary(stmt).assigned - declared) | (declared & scope.shadowed)
        head = dict(env)
        settle = set()
        counter = None
        if shape is not None:
            name, limit, step = shape
            counter = scope.py.get(name)
            fact = head.get(counter)
            if fact is not None:
                (lo, hi), every = fact
                top = None if hi is None else max(hi, limit - 1 + step)
                active = (lo, top)
                kind = scope.kind.get(name, "u")
                head[counter] = self._fact(active, ranges.join(every, active), kind)
        for name in changed:
            py = scope.py.get(name)
            if not py or py == counter or py not in head:
                continue
            if scope.kind.get(name) == "v":
                settle.add(py)
            else:
                del head[py]
        return head, settle

    def _emit_uniform_loop(self, stmt, scope: Scope, step, check_first, head):
        """Uniform loop: plain Python control flow, no masks.  Emits the loop
        with ``head`` as the environment at its top; returns the
        environments at its back edge and at its exit."""
        entry_mask, entry_div = self.mask, self.div
        self.env = None if head is None else dict(head)
        exits = []
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
            exits.append(self._narrowed(self.env, stmt.condition, False, scope))
            self.env = self._narrowed(self.env, stmt.condition, True, scope)
        if flag:
            self._line(f"{flag} = False")
        loop = {
            "masked": False, "once": need_once, "flag": flag,
            "python_while": isinstance(stmt, ast.WhileStmt), "breaks": [], "conts": [],
        }
        self.loops.append(loop)
        if need_once:
            self._line("for _once in _ONCE:")
            self._suite(lambda: self._emit_block(stmt.body.statements, scope))
        else:
            mark = len(self.lines)
            self._emit_block(stmt.body.statements, scope)
            if len(self.lines) == mark and (not check_first or stmt.condition is None):
                self._line("pass")
        self.loops.pop()
        exits.extend(loop["breaks"])
        self.env = _join_all([self.env, *loop["conts"]])
        if flag:
            self._line(f"if {flag}:")
            self._push()
            self._line("break")
            self._pop()
        if step is not None:
            self._emit_effect(self._emit(step, scope))
        if not check_first and stmt.condition is not None:
            cond = self._emit_test(stmt.condition, scope)
            self._line(f"if not ({cond.code}):")
            self._push()
            self._line("break")
            self._pop()
            exits.append(self._narrowed(self.env, stmt.condition, False, scope))
            self.env = self._narrowed(self.env, stmt.condition, True, scope)
        self._pop()
        self.mask, self.div = entry_mask, entry_div
        return self.env, _join_all(exits) if exits else None

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

    def _emit_masked_loop(self, stmt, scope: Scope, step, check_first, head):
        """A loop with per-lane trip counts: lanes retire from the active
        mask until none is left.  Emits the loop with ``head`` as the
        environment at its top; returns the environments at its back edge
        and at its exit.

        A loop whose body kills no lane needs no copy of its mask and, when
        it tests first, no ``.any()`` at its top (the test's own ends the
        loop); a loop without ``continue`` has no continue mask to merge."""
        entry_mask, entry_div = self.mask, self.div
        self.env = None if head is None else dict(head)
        exits = []
        kills = self._contains_kills(stmt.body)
        active = self._tmp("_ma")
        self._line(f"{active} = {entry_mask}")
        first = None
        if not check_first and stmt.condition is not None:
            first = self._tmp("_fr")
            self._line(f"{first} = True")
        tested = check_first and stmt.condition is not None
        self._line("while True:" if tested and not kills else f"while {active}.any():")
        self._push()
        if stmt.condition is not None:
            if first:
                self._line(f"if not {first}:")
                self._push()
            self.mask, self.div = active, True
            at_top = self.env
            cond = self._emit_test(stmt.condition, scope)
            self._line(f"{active} = {active} & {cond.code}")
            self._line(f"if not {active}.any():")
            self._push()
            self._line("break")
            self._pop()
            exits.append(self._narrowed(self.env, stmt.condition, False, scope))
            self.env = self._narrowed(self.env, stmt.condition, True, scope)
            if first:
                self._pop()
                self._line(f"{first} = False")
                self.env = ranges.env_join(at_top, self.env)
        cont = None
        if self._has_direct(stmt.body, ast.ContinueStmt):
            cont = self._tmp("_mc")
            self._line(f"{cont} = _Z")
        body_mask = active
        if kills:
            body_mask = self._tmp("_mx")
            self._line(f"{body_mask} = {active}")
        loop = {"masked": True, "cont": cont, "breaks": [], "conts": []}
        self.loops.append(loop)
        self.mask, self.div = body_mask, True
        self._emit_block(stmt.body.statements, scope)
        if self.mask != body_mask:
            self._line(f"{body_mask} = {self.mask}")
        self.loops.pop()
        exits.extend(loop["breaks"])
        self.env = _join_all([self.env, *loop["conts"]])
        if body_mask != active:
            merged = f"{body_mask} | {cont}" if cont else body_mask
            self._line(f"{active} = {merged}")
        if step is not None:
            guard = kills and not self._quiet_step(step)
            if guard:
                self._line(f"if {active}.any():")
                self._push()
            before = self.env
            self.mask, self.div = active, True
            self._emit_effect(self._emit(step, scope))
            if guard:
                self._pop()
                self.env = ranges.env_join(before, self.env)
        self._pop()
        back = self.env
        if self._count_returns(stmt.body):
            after = self._tmp("_m")
            self._line(f"{after} = {entry_mask} & ~{self.retref or '_ret'}")
            self.mask, self.div = after, True
        else:
            self.mask, self.div = entry_mask, entry_div
        return back, _join_all(exits) if exits else None

    def _quiet_step(self, step) -> bool:
        """Whether a loop step is ``v++``, ``v--`` or an assignment of a
        quiet value to a variable: running it with no lane active is
        unobservable."""
        if isinstance(step, ast.UnaryOp) and step.op in ("++", "--"):
            return isinstance(step.operand, ast.Identifier)
        return (
            isinstance(step, ast.Assignment)
            and isinstance(step.target, ast.Identifier)
            and step.op not in ("/=", "%=")
            and not self._summary(step.value).loud
            and not (_is_int_expr(step.target) and not _is_int_expr(step.value))
        )

    def _emit_trip_loop(self, stmt, scope: Scope, decl, start: Value, shape) -> None:
        """A counted loop as a Python loop over its trips (see ``docs/ir.md``).

        Lane ``l`` runs the trips ``k`` with ``start_l + k * step < limit``.
        Entered undivergent, the trips every lane runs (``hi + k * step <
        limit``) take the entering mask itself, so they use the unmasked
        entry points; the rest (every trip, under a divergent mask) mask
        each trip with its test, and a trip no lane runs is not emitted.
        The loop variable is bound per trip, never merged."""
        name, limit, step = shape
        lo, hi = start.rng[0]
        total = ranges.trips(lo, limit, step)
        full = ranges.trips(hi, limit, step)
        py = scope.py.get(name)
        if not py:
            py = f"v{self._next_id()}_{name}"
            scope.py[name] = py
        # The start's value on entry: the body may assign what it reads.
        origin = self._tmp("_s")
        if start.kind == "u" and scope.kind.get(name) == "v":
            self._line(f"{origin} = _np.full(L, {start.code})")
        else:
            self._line(f"{origin} = {start.code}")
        if full and not self.div:
            self._emit_trips(stmt, scope, py, origin, 0, full, shape, start.rng, False)
            if total > full:
                self._emit_trips(stmt, scope, py, origin, full, total, shape, start.rng, True)
        elif total:
            # Under a divergent mask every trip is masked anyway: one body.
            self._emit_trips(stmt, scope, py, origin, 0, total, shape, start.rng, True)

    def _emit_trips(self, stmt, scope: Scope, py: str, origin: str, first: int,
                    stop: int, shape, start_fact, masked: bool) -> None:
        """Trips ``[first, stop)`` of a trip loop: in line for one trip, else
        a Python ``for`` over the trips' offsets."""
        name, limit, step = shape
        (lo, hi), every = start_fact
        entry_mask, entry_div = self.mask, self.div
        top = hi + step * (stop - 1)
        active = (lo + step * first, min(top, limit - 1) if masked else top)
        if masked or entry_div:
            every = ranges.add(every, (step * first, step * (stop - 1)))
        else:
            every = active
        fact = self._fact(active, every, scope.kind.get(name, "u"))

        def trip(offset: str):
            self._line(f"{py} = {origin}" if offset == "0" else f"{py} = (({origin}) + ({offset}))")
            self._set_fact(py, fact)
            if not masked:
                self.mask, self.div = entry_mask, entry_div
                self._emit_block(stmt.body.statements, scope)
                self.mask, self.div = entry_mask, entry_div
                return
            trip_mask = self._tmp("_m")
            self._line(f"{trip_mask} = {entry_mask} & (({py}) < ({limit}))")
            self._line(f"if {trip_mask}.any():")
            before = self.env
            self.mask, self.div = trip_mask, True
            self._suite(lambda: self._emit_block(stmt.body.statements, scope))
            self.mask, self.div = entry_mask, entry_div
            self.env = ranges.env_join(before, self.env)

        if stop - first == 1:
            trip(str(step * first))
            return
        # Several trips: a Python loop, at the fixpoint of what its body
        # assigns (the trip variable is bound afresh on each).
        offset = self._tmp("_k")
        head, settle = self._loop_head(stmt, scope, shape)
        if head is not None:
            head.pop(py, None)

        def once(env):
            self.env = None if env is None else dict(env)
            self._line(f"for {offset} in range({step * first}, {step * stop}, {step}):")
            self._push()
            trip(offset)
            self._pop()
            return self.env, ranges.env_join(env, self.env)

        self.env = self._settle(head, settle, once)

    # -- kills ----------------------------------------------------------------
    def _emit_return(self, stmt: ast.ReturnStmt, scope: Scope) -> None:
        value = None
        if stmt.value is not None:
            emit = self._emit_expr if self.in_function else self._emit
            value = emit(stmt.value, scope)
        if self.in_function:
            # A returned value converts to the helper's return type.
            arr = "None" if value is None else self._promote(self._convert(value, self.retctype))
            self._line(f"{self.fnflow}.record({self.mask}, {arr})")
            self._line(f"{self.mask} = _Z")
            self.env = None
            return
        if not self.div:
            if value is not None:
                self._emit_effect(value)
            self._line("return _b")
            self.env = None
            return
        if value is not None:
            self._emit_effect(value)
        self._line(f"_ret = _ret | {self.mask}")
        self._line(f"{self.mask} = _Z")
        self.env = None

    def _emit_break(self) -> None:
        if not self.loops:
            raise self._unsupported("break outside of a loop")
        loop = self.loops[-1]
        loop["breaks"].append(self.env)
        if loop["masked"]:
            self._line(f"{self.mask} = _Z")
        elif loop.get("flag"):
            self._line(f"{loop['flag']} = True")
            self._line("break")
        else:
            self._line("break")
        self.env = None

    def _emit_continue(self) -> None:
        if not self.loops:
            raise self._unsupported("continue outside of a loop")
        loop = self.loops[-1]
        loop["conts"].append(self.env)
        if loop["masked"]:
            self._line(f"{loop['cont']} = {loop['cont']} | {self.mask}")
            self._line(f"{self.mask} = _Z")
        elif loop.get("python_while"):
            self._line("continue")
        else:
            self._line("break")  # exits the _ONCE wrapper, falls to the step
        self.env = None

    # -- expressions ------------------------------------------------------
    def _emit_expr(self, expr, scope: Scope) -> Value:
        """``expr`` as a C value: a predicate becomes an int 0/1 here."""
        return self._as_value(self._emit(expr, scope))

    def _emit_test(self, expr, scope: Scope) -> Value:
        """``expr`` as a predicate: a Python bool or a bool lane mask."""
        return self._test_of(self._emit(expr, scope), expr)

    def _emit(self, expr, scope: Scope) -> Value:
        """``expr`` as a C value or a predicate (``dt == "b"``)."""
        if isinstance(expr, ast.IntLiteral):
            return Value(repr(expr.value), "u", "i", (point(expr.value), point(expr.value)))
        if isinstance(expr, ast.FloatLiteral):
            return Value(repr(expr.value), "u", "f")
        if isinstance(expr, ast.BoolLiteral):
            bit = 1 if expr.value else 0
            return Value(str(bit), "u", "i", (point(bit), point(bit)))
        if isinstance(expr, ast.Identifier):
            name = expr.name
            if name in scope.space:
                return Value(scope.py[name], "c", scope.space[name])
            if name in scope.kind:
                py = scope.py.get(name)
                if not py:
                    raise self._unsupported(f"use of {name!r} before its declaration")
                dt = ctype_dt(expr.ctype)
                kind = scope.kind[name]
                return Value(py, kind, dt, self._lookup(py, kind) if dt == "i" else None)
            if name in BUILTIN_CONSTANTS:
                value = BUILTIN_CONSTANTS[name]
                rng = (point(value), point(value)) if isinstance(value, int) else None
                return Value(repr(value), "u", ctype_dt(expr.ctype), rng)
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
            target = expr.target_type
            if isinstance(target, ScalarType) and target.is_integer:
                if _is_bool(target) or value.dt == "f":
                    return self._convert(value, target)
                if value.kind == "u":
                    return Value(f"int({value.code})", "u", "i", value.rng)
                return value
            if isinstance(target, ScalarType) and target.is_float:
                if value.kind == "u":
                    return Value(f"float({value.code})", "u", "f")
                return Value(f"_np.asarray({value.code}).astype(_F)", "v", "f")
            return value
        raise self._unsupported(f"expression {type(expr).__name__}")

    def _emit_unary(self, expr: ast.UnaryOp, scope: Scope) -> Value:
        if expr.op in ("++", "--"):
            delta = 1 if expr.op == "++" else -1
            old = self._emit_expr(expr.operand, scope)
            old_t = self._tmp()
            self._line(f"{old_t} = {old.code}")
            new_t = self._tmp()
            self._line(f"{new_t} = {old_t} + ({delta})")
            new_rng = None
            if old.dt == "i":
                step = point(delta)
                new_rng = self._fact(
                    ranges.add(self._active(old), step), ranges.add(self._every(old), step)
                )
            self._store_to(expr.operand, Value(new_t, old.kind, old.dt, new_rng), scope)
            if expr.postfix:
                return Value(old_t, old.kind, old.dt, old.rng)
            return Value(new_t, old.kind, old.dt, new_rng)
        if expr.op == "!":
            operand = self._test_of(self._emit(expr.operand, scope), expr.operand)
            if operand.code in (_TRUE, _FALSE):
                bit = 1 if operand.code == _FALSE else 0
                return Value(_TRUE if bit else _FALSE, "u", "b", (point(bit), point(bit)))
            negated = f"(not {operand.code})" if operand.kind == "u" else f"(~{operand.code})"
            return Value(negated, operand.kind, "b", ((0, 1), (0, 1)))
        operand = self._emit_expr(expr.operand, scope)
        if expr.op == "-":
            rng = None
            if operand.dt == "i":
                active, every = self._active(operand), self._every(operand)
                rng = self._fact(ranges.neg(active), ranges.neg(every))
            return Value(f"(-({operand.code}))", operand.kind, operand.dt, rng)
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
        if op in ranges.NEGATED:
            # What a test on this comparison narrows its operands against.
            self.compared[id(expr)] = (self._active(left), self._active(right))
        return self._apply_binary(op, left, right, ctype_dt(expr.ctype), (expr.left, expr.right))

    def _nonzero(self, v: Value) -> bool:
        """Whether ``v`` is nonzero on every active lane."""
        if v.dt == "i":
            return ranges.excludes_zero(self._active(v))
        try:
            return v.kind == "u" and float(v.code) != 0.0
        except ValueError:
            return False

    def _apply_binary(self, op: str, left: Value, right: Value, dt: str,
                      operands=None) -> Value:
        """``left op right``; ``dt`` is the operation's static type, which
        picks the integer or the float ``/`` and ``%``.  A comparison the
        ranges decide folds when its ``operands`` (expressions) are quiet."""
        kind = join_kind(left.kind, right.kind)
        ints = dt == "i" and left.dt == "i" and right.dt == "i"
        al, ar = self._active(left), self._active(right)
        el, er = self._every(left), self._every(right)
        if op in ("/", "%"):
            rng = None
            if ints:
                fn = ranges.div if op == "/" else ranges.mod
                every = fn(el, er) if ranges.excludes_zero(er) else TOP
                rng = self._fact(fn(al, ar), every, kind)
            if kind == "u":
                return Value(f"{_DIVISION[op, dt, kind]}({left.code}, {right.code})", kind, dt, rng)
            if not self._nonzero(right):
                return Value(
                    f"{_DIVISION[op, dt, kind]}({left.code}, {right.code}, {self.mask})",
                    kind, dt, rng,
                )
            # The divisor is nonzero on every active lane: no zero scan.
            if op == "%":
                return Value(f"_np.fmod({left.code}, {right.code})", kind, dt, rng)
            if dt == "f":
                return Value(f"(({left.code}) / ({right.code}))", kind, dt)
            if ranges.nonnegative(al) and ar[0] is not None and ar[0] > 0:
                # Floor and truncation agree on the active lanes.
                if ints and not (ranges.nonnegative(el) and er[0] is not None and er[0] > 0):
                    rng = self._fact(rng[0] if rng else TOP, TOP, kind)
                return Value(f"(({left.code}) // ({right.code}))", kind, dt, rng)
            return Value(f"_trunc_div({left.code}, {right.code})", kind, dt, rng)
        if op in ("+", "-", "*"):
            rng = None
            if ints:
                fn = {"+": ranges.add, "-": ranges.sub, "*": ranges.mul}[op]
                rng = self._fact(fn(al, ar), fn(el, er), kind)
            return Value(f"(({left.code}) {op} ({right.code}))", kind, dt, rng)
        if op in PREDICATE_OPS:
            if left.dt == "i" and right.dt == "i":
                decided = ranges.compare(op, al, ar) if operands else None
                if decided is not None and self._quiet(*operands):
                    bit = int(decided)
                    return Value(_TRUE if decided else _FALSE, "u", "b", (point(bit), point(bit)))
            return Value(f"(({left.code}) {op} ({right.code}))", kind, "b", ((0, 1), (0, 1)))
        if op in ("&", "|", "^", "<<", ">>"):
            lc, rc = self._typed_code(left, "i"), self._typed_code(right, "i")
            return Value(f"(({lc}) {op} ({rc}))", kind, "i")
        raise self._unsupported(f"binary operator {op!r}")

    def _emit_logical(self, expr: ast.BinaryOp, scope: Scope) -> Value:
        is_and = expr.op == "&&"
        left = self._emit_test(expr.left, scope)
        if left.code in (_TRUE, _FALSE):
            if (left.code == _TRUE) != is_and:
                return left  # decided: the right operand runs on no lane
            return self._emit_test(expr.right, scope)
        env_left = self.env
        right_env = self._narrowed(env_left, expr.left, is_and, scope)
        kind = self._c_expr(expr, ScopeView(scope), self.div)
        if kind == "u":
            self.env = right_env
            captured, right = self._capture_expr(
                lambda: self._emit_test(expr.right, scope)
            )
            self.env = ranges.env_join(env_left, self.env)
            if not captured:
                op = "and" if is_and else "or"
                return Value(f"(({left.code}) {op} ({right.code}))", "u", "b", ((0, 1), (0, 1)))
            out = self._tmp()
            self._line(f"{out} = {left.code}")
            self._line(f"if {'' if is_and else 'not '}{out}:")
            self._push()
            self._splice(captured)
            self._line(f"{out} = {right.code}")
            self._pop()
            return Value(out, "u", "b", ((0, 1), (0, 1)))
        op = "&" if is_and else "|"
        if not self._summary(expr.right).sensitive:
            # Evaluating the right operand on every lane is unobservable.
            self.env = right_env
            right = self._emit_test(expr.right, scope)
            self.env = ranges.env_join(env_left, self.env)
            if right.code in (_TRUE, _FALSE):
                if (right.code == _TRUE) == is_and:
                    return left  # `a && true`, `a || false`
                if self._quiet(expr.left):
                    return right
            return Value(f"(({left.code}) {op} ({right.code}))", "v", "b", ((0, 1), (0, 1)))
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
        self.env = right_env
        right = self._emit_test(expr.right, scope)
        self._line(f"{out} = {out} {op} {right.code}")
        self.mask, self.div = saved_mask, saved_div
        self.env = ranges.env_join(env_left, self.env)
        self._pop()
        return Value(out, "v", "b", ((0, 1), (0, 1)))

    def _emit_assignment(self, expr: ast.Assignment, scope: Scope) -> Value:
        value = self._emit_expr(expr.value, scope)
        if expr.op != "=":
            current = self._emit_expr(expr.target, scope)
            optype = common_type(expr.target.ctype, expr.value.ctype)
            value = self._apply_binary(expr.op[:-1], current, value, ctype_dt(optype))
        # The stored value, and the assignment's, has the target's type.
        value = self._materialize(self._convert(value, expr.ctype))
        self._store_to(expr.target, value, scope)
        return value

    def _materialize(self, value: Value) -> Value:
        """Bind a composite expression to a temp so it is evaluated once."""
        if value.code.isidentifier() or value.code.replace(".", "", 1).isdigit():
            return value
        name = self._tmp()
        self._line(f"{name} = {value.code}")
        return Value(name, value.kind, value.dt, value.rng)

    def _store_to(self, target, value: Value, scope: Scope) -> None:
        if isinstance(target, ast.Identifier):
            self._store_ident(target.name, value, scope)
            return
        if isinstance(target, ast.Index):
            container = self._container(target.base, scope)
            index = self._emit_expr(target.index, scope)
            self._emit_store(container, index, value)
            return
        raise self._unsupported("assignment target")

    def _store_ident(self, name: str, value: Value, scope: Scope) -> None:
        """Store ``value``, which has the variable's type already."""
        if name not in scope.kind:
            raise self._unsupported(f"assignment to undefined variable {name!r}")
        py = scope.py.get(name)
        if not py:
            raise self._unsupported(f"assignment to {name!r} before its declaration")
        kind = scope.kind[name]
        active = self._active(value) if value.dt == "i" else TOP
        every = self._every(value) if value.dt == "i" else TOP
        if kind == "v" and self.div:
            if self.decl_mask.get(py) == self.mask and name not in scope.shadowed:
                # Under its declaration's mask: the lanes inactive here left
                # the variable's scope, so the slot takes every lane's value.
                code = f"_np.full(L, {value.code})" if value.kind == "u" else value.code
                self._line(f"{py} = {code}")
                self._set_fact(py, self._fact(active, every))
                return
            old = self._lookup(py, kind)
            self._line(f"{py} = _amask({py}, {value.code}, {self.mask})")
            self._set_fact(py, self._fact(active, ranges.join(old[1], active) if old else TOP))
            return
        code = value.code
        if kind == "v" and value.kind == "u":
            code = f"_np.full(L, {code})"
        self._line(f"{py} = {code}")
        self._set_fact(py, self._fact(active, active, kind))

    def _container(self, base, scope: Scope):
        value = self._emit_expr(base, scope)
        if value.kind != "c":
            raise self._unsupported("indexing a non-array value")
        return value

    def _in_bounds(self, container: Value, index: Value) -> bool:
        """Whether ``index`` addresses ``container`` on every active lane
        (only local, private and constant arrays have a known length)."""
        length = self._length(container)
        return length is not None and ranges.within(self._active(index), 0, length - 1)

    def _emit_store(self, container: Value, index: Value, value: Value) -> None:
        idx = self._typed_code(index, "i")
        suffix = "_in" if self._in_bounds(container, index) else ""
        if self.div:
            self._line(f"{container.code}.storem{suffix}({idx}, {value.code}, {self.mask})")
        else:
            self._line(f"{container.code}.storef{suffix}({idx}, {value.code})")

    def _emit_load_index(self, expr: ast.Index, scope: Scope) -> Value:
        container = self._container(expr.base, scope)
        index = self._emit_expr(expr.index, scope)
        py = container.code
        idx = self._typed_code(index, "i")
        suffix = "_in" if self._in_bounds(container, index) else ""
        # The container Value carries the address space in .dt; only a
        # constant array read at a uniform index yields a uniform value.
        # Memory holds float64: an int element converts on its load.
        if container.dt == "constant" and index.kind == "u":
            if self.div:
                load = Value(f"{py}.loadum({idx}, {self.mask})", "u", "f")
            else:
                load = Value(f"{py}.loadu({idx}, L)", "u", "f")
        elif self.div:
            length = self._length(container)
            if suffix and container.dt == "private" and ranges.within(
                self._every(index), -1, length
            ):
                # Every lane's slot addresses the flat array (a spare at
                # each end), so the unmasked load needs no mask arithmetic.
                load = Value(f"{py}.loadf_in({idx})", "v", "f")
            else:
                load = Value(f"{py}.loadm{suffix}({idx}, {self.mask})", "v", "f")
        else:
            load = Value(f"{py}.loadf{suffix}({idx})", "v", "f")
        return self._convert(load, expr.ctype)

    def _emit_ternary(self, expr: ast.Ternary, scope: Scope) -> Value:
        """A ``?:`` of the arms' common type: a uniform test converts the
        arm it picks, a varying one merges both arms into lanes of the type."""
        dt = ctype_dt(expr.ctype)
        cond = self._emit_test(expr.condition, scope)
        env = self.env
        envs = (
            self._narrowed(env, expr.condition, True, scope),
            self._narrowed(env, expr.condition, False, scope),
        )
        if cond.code in (_TRUE, _FALSE):
            taken = cond.code == _TRUE
            self.env = envs[0] if taken else envs[1]
            return self._typed(self._emit_expr(expr.if_true if taken else expr.if_false, scope), dt)
        if cond.kind == "u":
            arms = []
            ends = []
            for arm_expr, arm_env in zip((expr.if_true, expr.if_false), envs):
                self.env = arm_env
                arms.append(self._capture_expr(
                    lambda arm_expr=arm_expr: self._typed(self._emit_expr(arm_expr, scope), dt)
                ))
                ends.append(self.env)
            self.env = _join_all(ends)
            (cap_a, a), (cap_b, b) = arms
            kind = join_kind(a.kind, b.kind)
            rng = None
            if dt == "i" and a.rng is not None and b.rng is not None:
                rng = self._fact(
                    ranges.join(a.rng[0], b.rng[0]), ranges.join(a.rng[1], b.rng[1]), kind
                )
            if not cap_a and not cap_b and kind == "u":
                return Value(f"(({a.code}) if ({cond.code}) else ({b.code}))", "u", dt, rng)
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
            return Value(out, kind, dt, rng)
        test = self._tmp("_c")
        self._line(f"{test} = {cond.code}")
        mask_t = self._tmp("_m")
        mask_f = self._tmp("_m")
        self._line(f"{mask_t} = {self.mask} & {test}")
        self._line(f"{mask_f} = {self.mask} & ~{test}")
        parts = self._tmp("_p")
        self._line(f"{parts} = []")
        saved_mask, saved_div = self.mask, self.div
        actives = []
        ends = []
        arms = zip((mask_t, mask_f), (expr.if_true, expr.if_false), envs)
        for arm_mask, arm_expr, arm_env in arms:
            self._line(f"if {arm_mask}.any():")
            self._push()
            self.mask, self.div = arm_mask, True
            self.env = arm_env
            arm = self._emit_expr(arm_expr, scope)
            actives.append(self._active(arm) if arm.dt == "i" else TOP)
            ends.append(self.env)
            self._line(f"{parts}.append(({arm_mask}, {self._promote(arm)}))")
            self.mask, self.div = saved_mask, saved_div
            self._pop()
        self.env = _join_all(ends + [env])
        out = self._tmp()
        self._line(f"{out} = _merge_parts(L, {parts}, {_NP_DTYPE[dt]})")
        rng = None
        if dt == "i":
            active = ranges.join(*actives)
            # A lane of neither arm keeps merge_parts' zero.
            rng = self._fact(active, ranges.join(active, point(0)))
        return Value(out, "v", dt, rng)

    # -- calls ------------------------------------------------------------
    def _emit_call(self, call: ast.Call, scope: Scope) -> Value:
        name = call.name
        if name in CONTEXT_BUILTINS:
            dim = self._context_dim(call)
            field = CONTEXT_FIELDS[name]
            if field == "lsz":
                size = self.local_size[dim]
                return Value(str(size), "u", "i", (point(size), point(size)))
            short = {"gid": "g", "lid": "l", "grp": "G", "gsz": "S", "ngrp": "N"}[field]
            ident = f"{short}{dim}"
            self.used_ids.add(ident)
            if field == "lid":
                span = (0, self.local_size[dim] - 1)
                return Value(ident, "v", "i", (span, span))
            if field in ("gid", "grp"):
                return Value(ident, "v", "i", ((0, None), (0, None)))
            return Value(ident, "u", "i", ((1, None), (1, None)))
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
            kind = join_kind(*(arg.kind for arg in args))
            rng = None
            if dt == "i" and name in _INT_RANGES:
                pick = self._int_pick(name, args)
                if pick is not None and self._quiet(
                    *(arg for i, arg in enumerate(call.args) if i != pick)
                ):
                    return args[pick]  # the ranges decide which operand it is
                rng = self._fact(
                    _INT_RANGES[name](*(self._active(a) for a in args)),
                    _INT_RANGES[name](*(self._every(a) for a in args)),
                    kind,
                )
            if kind == "u":
                impl = self._bind(f"_bi_{name}", f"_BI_IMPL({name!r})")
                arg_code = ", ".join(arg.code for arg in args)
                return Value(f"_ucall({name!r}, {impl}, {arg_code})", "u", dt, rng)
            if dt == "i" and name in INT_BUILTINS:
                fn = self._bind(f"_vi_{name}", f"_VI[{name!r}]")
                arg_code = ", ".join(arg.code for arg in args)
                return Value(f"{fn}({self.mask}, {arg_code})", "v", dt, rng)
            if name in VECTOR_BUILTINS:
                fn = self._bind(f"_vb_{name}", f"_VB[{name!r}]")
                arg_code = ", ".join(arg.code for arg in args)
                return Value(f"{fn}({self.mask}, {arg_code})", "v", dt, rng)
            fn = self._bind(f"_vf_{name}", f"_VF({name!r})")
            arg_code = ", ".join(self._promote(arg) for arg in args)
            return Value(f"{fn}({self.mask}, {arg_code})", "v", dt, rng)
        if name in self.functions:
            return self._emit_user_call(self.functions[name], call, scope)
        raise self._unsupported(f"call to unknown function {name!r}")

    def _int_pick(self, name: str, args):
        """The position of the operand an int ``min``/``max``/``clamp``/
        ``abs`` returns on every active lane, when the ranges decide it;
        else ``None``."""
        ranges_of = [self._active(a) for a in args]
        if name == "abs":
            return 0 if ranges.nonnegative(ranges_of[0]) else None
        if name == "clamp":
            value, low, high = ranges_of
            if ranges.compare("<=", low, value) and ranges.compare("<=", value, high):
                return 0
            return None
        if name in ("min", "max"):
            first, second = ranges_of
            op = "<=" if name == "min" else ">="
            if ranges.compare(op, first, second):
                return 0
            if ranges.compare(op, second, first):
                return 1
        return None

    def _emit_user_call(self, func: ast.FunctionDef, call: ast.Call,
                        scope: Scope) -> Value:
        arg_values = [self._emit_expr(arg, scope) for arg in call.args]
        arg_sigs = tuple(v.dt if v.kind == "c" else v.kind for v in arg_values)
        simple = self._fn_summary(func, arg_sigs, self.div)[1]
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
                v = self._convert(v, param.param_type)
                param_kind = callee.kind[param.name]
                code = self._promote(v) if param_kind == "v" else v.code
                bound = self._tmp("_a")
                self._line(f"{bound} = {code}")
                callee.py[param.name] = bound
                self.decl_mask[bound] = self.mask
                every = self._every(v) if self.div else self._active(v)
                self._set_fact(bound, self._fact(self._active(v), every, param_kind))
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
                result = self._convert(
                    self._emit_expr(func.body.statements[-1].value, callee), func.return_type
                )
                # The ranges may have decided a result classed as varying.
                return self._materialize(Value(result.code, result.kind, dt, result.rng))
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
                     self.retctype, self.retref, self.loops, self.env)
            self.mask, self.div = fn_mask, True
            self.in_function, self.fnflow, self.retctype = True, flow, func.return_type
            self.retref, self.loops = f"{flow}.returned", []
            self.env = None if self.env is None else dict(self.env)
            self._emit_block(func.body.statements, callee)
            (self.mask, self.div, self.in_function, self.fnflow,
             self.retctype, self.retref, self.loops, self.env) = saved
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


#: Interval transfer of the int built-ins the range fact follows.
_INT_RANGES = {
    "min": ranges.minimum,
    "max": ranges.maximum,
    "clamp": lambda value, low, high: ranges.minimum(ranges.maximum(value, low), high),
    "abs": ranges.magnitude,
    "select": lambda a, b, c: ranges.join(a, b),
}


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
