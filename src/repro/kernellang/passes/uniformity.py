"""Uniformity analysis: classify every kernel variable as uniform or varying.

**Consumes** a parsed :class:`~repro.kernellang.ast.Program`, one kernel
name and the baked work-group shape.  A lowered kernel runs every work
group of a launch side by side in one stacked pass, so *uniform* means
"the same in every lane of every group": literals, scalar kernel
arguments, size queries and anything computed only from those.
``get_global_id``, ``get_local_id`` and ``get_group_id`` are varying, as
is every global or local memory load (each lane may address its own
request's segment or its own group's tile).  **Guarantees downstream** a
fully populated :class:`~repro.kernellang.ir.Scope` per function body —
every scalar variable carries a kind (``"u"`` uniform / ``"v"`` varying),
every container name carries its address space — plus the two shape
decisions the mask-insertion pass needs.  Dtypes are not analysed: the
type checker recorded every expression's C type on the program, and the
lowering reads them from there.  The decisions:

* :meth:`UniformityAnalysis._loop_masked` — whether a loop needs per-lane
  mask machinery (varying trip count, varying init of the induction
  variable, or masked kills escaping from its body) or can run as a plain
  uniform loop;
* ``has_masked_return`` — whether any kernel-level ``return`` executes
  under a divergent mask, which forces the return-lane bookkeeping
  (``_ret``) into the lowered prologue.

It also supplies the syntactic facts the range rules of
:mod:`repro.kernellang.passes.ranges` rest on: per function body,
``Scope.shadowed`` (names a declaration re-declares while an outer one is
in scope -- both backends keep one slot per name, so those keep their
merges) and ``Scope.unread`` (variables nothing reads, set only by quiet
statements of their own, which the emitter never computes); per node, a
memoized :class:`Summary` (what a subtree assigns, declares and reads,
and whether it holds a barrier, can change a variable, is mask-sensitive
or can raise); and :func:`counted_loop`, the ``for`` loops that count an
int variable up by a literal to a literal bound.

The analysis is a fixpoint over the statement walk: kinds only ever move
*up* the lattice of :mod:`repro.kernellang.ir` (uniform may become
varying, never the reverse), so the walk converges; a bound of 50
iterations guards pathological programs.  Divergence is tracked exactly
the way the emitters replay it — a statement whose subtree kills lanes
(``return``/``break``/``continue`` escaping through a mask merge) leaves
the rest of its block divergent, so declarations after it are classified
the way they will execute.  Helper calls are summarized per (callee,
argument kinds, divergence) signature and memoized; recursion and
inlining deeper than :data:`UniformityAnalysis.MAX_INLINE_DEPTH` raise
:class:`~repro.kernellang.ir.LoweringError`, as does any construct the
lowering cannot specialize — always at analysis time, never after a lane
has run, so the codegen backend can run that launch on the interpreter
instead.
"""

from __future__ import annotations

from dataclasses import fields

from .. import ast
from ..builtins import (
    BUILTIN_CONSTANTS,
    CONTEXT_BUILTINS,
    SYNC_BUILTINS,
    is_builtin,
)
from ..interpreter import KernelInterpreter, _ConstantArray
from ..ir import LoweringError, Scope, ScopeView, join_kind
from ..types import PointerType, ScalarType


class UniformityAnalysis:
    """Classifies one kernel of a program for lowering.

    The emitters subclass this (the codegen printer) or call it through
    :func:`classify_kernel`; every ``_c_*`` method is a side-effect-free
    classification twin of the corresponding emission step.
    """

    #: Inline depth bound: kernellang has no recursion, this guards cycles.
    MAX_INLINE_DEPTH = 16

    def __init__(
        self,
        program: ast.Program,
        kernel_name: str | None,
        local_size: tuple[int, ...],
    ) -> None:
        self.program = program
        self.kernel_def = program.kernel(kernel_name)
        self.functions = {f.name: f for f in program.functions}
        # Reuse the interpreter's constant evaluation so file-scope constants
        # are guaranteed to agree with the reference backend.
        self.constants = KernelInterpreter(program, self.kernel_def.name).constants
        self.local_size = tuple(int(v) for v in local_size)
        self.has_masked_return = False
        self._inline_stack: list[str] = []
        self._fn_memo: dict = {}
        self._body_facts: dict = {}
        self.summaries: dict = {}  # syntactic summaries, by node identity

    def _unsupported(self, what: str) -> LoweringError:
        return LoweringError(f"codegen cannot specialize {what}")

    # -- scope construction -----------------------------------------------
    def kernel_scope(self) -> Scope:
        """The kernel body's entry scope: constants + parameters seeded."""
        scope = Scope()
        self._seed_constants(scope)
        for param in self.kernel_def.params:
            if isinstance(param.param_type, PointerType):
                scope.space[param.name] = "global"
                scope.py[param.name] = f"c_{param.name}"
            else:
                scope.kind[param.name] = "u"
                scope.py[param.name] = f"v_{param.name}"
        self._seed_body_facts(scope, self.kernel_def)
        return scope

    def _seed_body_facts(self, scope: Scope, func: ast.FunctionDef) -> None:
        facts = self._body_facts.get(func.name)
        if facts is None:
            visible = {p.name for p in func.params} | set(self.constants)
            shadowed = shadowed_names(func.body, visible)
            unread = unread_names(func.body, self.summaries) - shadowed
            facts = self._body_facts[func.name] = (shadowed, unread)
        scope.shadowed, scope.unread = facts

    def _seed_constants(self, scope: Scope) -> None:
        for name, value in self.constants.items():
            if isinstance(value, _ConstantArray):
                scope.space[name] = "constant"
                scope.py[name] = f"kc_{name}"
            else:
                scope.kind[name] = "u"
                scope.py[name] = f"k_{name}"

    # -- classification: expression kinds -------------------------------
    def _c_assign(self, scope: Scope, name: str, kind: str, div: bool) -> None:
        if kind == "v" or div or scope.kind.get(name) == "v":
            scope.kind[name] = "v"
        else:
            scope.kind.setdefault(name, "u")

    def _c_expr(self, expr, scope: Scope, div: bool) -> str:
        """Kind of ``expr`` (``"c"`` for a container); records assignment
        side effects."""
        if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.BoolLiteral)):
            return "u"
        if isinstance(expr, ast.Identifier):
            name = expr.name
            if name in scope.space:
                return "c"
            if name in scope.kind:
                return scope.kind[name]
            if name in BUILTIN_CONSTANTS:
                return "u"
            if getattr(scope, "optimistic", False):
                # Loop-shape queries may run before a nested declaration has
                # been classified; assume uniform — the fixpoint re-checks
                # once the variable's real kind is known (kinds only go up).
                return "u"
            raise self._unsupported(f"undefined identifier {name!r}")
        if isinstance(expr, ast.UnaryOp):
            k = self._c_expr(expr.operand, scope, div)
            if expr.op in ("++", "--"):
                if isinstance(expr.operand, ast.Identifier):
                    self._c_assign(scope, expr.operand.name, k, div)
                return "v" if div else k
            return k
        if isinstance(expr, ast.BinaryOp):
            lk = self._c_expr(expr.left, scope, div)
            sub_div = div or lk == "v"
            rk = self._c_expr(expr.right, scope, sub_div if expr.op in ("&&", "||") else div)
            return join_kind(lk, rk)
        if isinstance(expr, ast.Assignment):
            vk = self._c_expr(expr.value, scope, div)
            if expr.op != "=":
                vk = join_kind(self._c_expr(expr.target, scope, div), vk)
            if isinstance(expr.target, ast.Identifier):
                self._c_assign(scope, expr.target.name, vk, div)
            elif isinstance(expr.target, ast.Index):
                self._c_expr(expr.target.base, scope, div)
                self._c_expr(expr.target.index, scope, div)
            return vk
        if isinstance(expr, ast.Ternary):
            ck = self._c_expr(expr.condition, scope, div)
            sub_div = div or ck == "v"
            ak = self._c_expr(expr.if_true, scope, sub_div)
            bk = self._c_expr(expr.if_false, scope, sub_div)
            return join_kind(ck, ak, bk)
        if isinstance(expr, ast.Call):
            return self._c_call(expr, scope, div)
        if isinstance(expr, ast.Index):
            bk = self._c_expr(expr.base, scope, div)
            ik = self._c_expr(expr.index, scope, div)
            if bk != "c":
                raise self._unsupported("indexing a non-array value")
            # Only a constant array read at a uniform index is uniform.
            return ik if scope.space[expr.base.name] == "constant" else "v"
        if isinstance(expr, ast.Cast):
            return self._c_expr(expr.expr, scope, div)
        if isinstance(expr, ast.InitList):
            raise self._unsupported("an initializer list outside a declaration")
        raise self._unsupported(f"expression {type(expr).__name__}")

    def _c_sig(self, arg, scope: Scope, div: bool) -> str:
        """A helper argument's signature: its kind, or a container's space."""
        kind = self._c_expr(arg, scope, div)
        return scope.space[arg.name] if kind == "c" else kind

    def _c_call(self, call: ast.Call, scope: Scope, div: bool) -> str:
        name = call.name
        if name in CONTEXT_BUILTINS:
            self._context_dim(call)  # validates the dim argument
            if name in ("get_global_id", "get_local_id", "get_group_id"):
                return "v"
            return "u"
        if name in SYNC_BUILTINS:
            raise self._unsupported("barrier()/mem_fence() inside an expression")
        if is_builtin(name):
            kinds = [self._c_expr(arg, scope, div) for arg in call.args]
            if "c" in kinds:
                raise self._unsupported(f"array argument to built-in {name!r}")
            return join_kind(*kinds)
        if name in self.functions:
            sigs = tuple(self._c_sig(arg, scope, div) for arg in call.args)
            kind, _simple = self._fn_summary(self.functions[name], sigs, div)
            return kind
        raise self._unsupported(f"call to unknown function {name!r}")

    def _context_dim(self, call: ast.Call) -> int:
        if not call.args:
            return 0
        arg = call.args[0]
        if not isinstance(arg, ast.IntLiteral):
            raise self._unsupported(
                f"a non-literal dimension argument to {call.name}()"
            )
        dim = arg.value
        if not 0 <= dim < len(self.local_size):
            raise self._unsupported(
                f"{call.name}({dim}) outside the launch rank"
            )
        return dim

    # -- classification: statements --------------------------------------
    def _fn_simple(self, func: ast.FunctionDef) -> bool:
        """Straight-line body ending in a single return: inlines uniformly."""
        stmts = func.body.statements
        if not stmts or not isinstance(stmts[-1], ast.ReturnStmt):
            return False
        if stmts[-1].value is None:
            return False
        for stmt in stmts[:-1]:
            if not isinstance(stmt, (ast.DeclStmt, ast.ExprStmt)):
                return False
            if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Call) \
                    and stmt.expr.name in SYNC_BUILTINS:
                return False
        return self._count_returns(func.body) == 1

    def _count_returns(self, block) -> int:
        count = 0
        for stmt in block.statements:
            if isinstance(stmt, ast.ReturnStmt):
                count += 1
            elif isinstance(stmt, (ast.Block,)):
                count += self._count_returns(stmt)
            elif isinstance(stmt, ast.IfStmt):
                count += self._count_returns(stmt.then_body)
                if stmt.else_body is not None:
                    count += self._count_returns(stmt.else_body)
            elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoWhileStmt)):
                count += self._count_returns(stmt.body)
        return count

    def _callee_scope(self, func: ast.FunctionDef, arg_sigs) -> Scope:
        scope = Scope()
        self._seed_constants(scope)
        if len(arg_sigs) != len(func.params):
            raise self._unsupported(
                f"call to {func.name!r} with {len(arg_sigs)} arguments "
                f"(expects {len(func.params)})"
            )
        for param, sig in zip(func.params, arg_sigs):
            if sig in ("u", "v"):
                scope.kind[param.name] = sig
            else:
                scope.space[param.name] = sig
            scope.py[param.name] = ""  # bound at emission time
        self._seed_body_facts(scope, func)
        return scope

    def _fn_summary(self, func: ast.FunctionDef, arg_sigs, div: bool):
        """(kind, simple) of a helper call with the given argument kinds."""
        key = (func.name, arg_sigs, div)
        cached = self._fn_memo.get(key)
        if cached is not None:
            return cached
        if func.name in self._inline_stack:
            raise self._unsupported(f"recursive helper function {func.name!r}")
        if len(self._inline_stack) >= self.MAX_INLINE_DEPTH:
            raise self._unsupported("helper inlining deeper than 16 levels")
        self._inline_stack.append(func.name)
        try:
            simple = self._fn_simple(func)
            scope = self._callee_scope(func, arg_sigs)
            body_div = div or not simple
            self._classify(func.body, scope, body_div, in_function=True)
            if simple:
                kind = self._c_expr(func.body.statements[-1].value, scope, body_div)
                result = (kind, True)
            else:
                result = ("v", False)
        finally:
            self._inline_stack.pop()
        self._fn_memo[key] = result
        return result

    def _classify(self, block, scope: Scope, div: bool, in_function: bool) -> None:
        """Run the statement walk to a fixpoint (kinds only ever go up)."""
        for _ in range(50):
            before = dict(scope.kind)
            self._c_block(block, scope, div, in_function)
            if scope.kind == before:
                return
        raise self._unsupported("a program whose classification does not converge")

    def _c_block(self, block, scope, div, in_function) -> bool:
        """Classify a block; returns the divergence state *after* the block.

        Mirrors the emitter exactly: a statement whose subtree kills lanes
        (return / break / continue escaping through a mask merge) leaves
        the remainder of the block divergent, so later declarations are
        classified — and pre-initialized — the way they will be emitted.
        """
        for stmt in block.statements:
            div = self._c_stmt(stmt, scope, div, in_function)
        return div

    def _c_stmt(self, stmt, scope, div, in_function) -> bool:
        if isinstance(stmt, ast.DeclStmt):
            for decl in stmt.declarations:
                self._c_decl(decl, scope, div)
            return div
        if isinstance(stmt, ast.ExprStmt):
            if isinstance(stmt.expr, ast.Call) and stmt.expr.name in SYNC_BUILTINS:
                return div
            self._c_expr(stmt.expr, scope, div)
            return div
        if isinstance(stmt, ast.Block):
            return self._c_block(stmt, scope, div, in_function)
        if isinstance(stmt, ast.IfStmt):
            ck = self._c_expr(stmt.condition, scope, div)
            branch_div = div or ck == "v"
            self._c_block(stmt.then_body, scope, branch_div, in_function)
            if stmt.else_body is not None:
                self._c_block(stmt.else_body, scope, branch_div, in_function)
            kills = self._contains_kills(stmt.then_body) or (
                stmt.else_body is not None
                and self._contains_kills(stmt.else_body)
            )
            return div or bool(kills)
        if isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoWhileStmt)):
            if isinstance(stmt, ast.ForStmt) and stmt.init is not None:
                self._c_stmt(stmt.init, scope, div, in_function)
            masked = self._loop_masked(stmt, scope, div)
            body_div = div or masked
            if stmt.condition is not None:
                self._c_expr(stmt.condition, scope, body_div)
            self._c_block(stmt.body, scope, body_div, in_function)
            if isinstance(stmt, ast.ForStmt) and stmt.step is not None:
                self._c_expr(stmt.step, scope, body_div)
            return div or self._count_returns(stmt.body) > 0
        if isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                self._c_expr(stmt.value, scope, div)
            if div and not in_function:
                self.has_masked_return = True
            return div
        if isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            return div
        raise self._unsupported(f"statement {type(stmt).__name__}")

    def _c_decl(self, decl: ast.VarDecl, scope: Scope, div: bool) -> None:
        if decl.array_size is not None:
            sk = self._c_expr(decl.array_size, scope, div)
            if sk == "v":
                raise self._unsupported(
                    f"array {decl.name!r} with a varying size"
                )
            scope.space[decl.name] = (
                "local" if decl.address_space == "local" else "private"
            )
            scope.py.setdefault(decl.name, "")
            if isinstance(decl.init, ast.InitList):
                for value in decl.init.values:
                    self._c_expr(value, scope, div)
            return
        vk = self._c_expr(decl.init, scope, div) if decl.init is not None else "u"
        self._c_assign(scope, decl.name, vk, div)
        if div:
            scope.divdecl.add(decl.name)

    # -- loop shape decisions ---------------------------------------------
    def _loop_masked(self, node, scope: Scope, outer_div: bool) -> bool:
        if outer_div:
            return True
        if node.condition is not None:
            ck = self._c_expr(node.condition, ScopeView(scope), False)
            if ck == "v":
                return True
        if isinstance(node, ast.ForStmt) and node.init is not None:
            init = node.init
            if isinstance(init, ast.DeclStmt):
                for decl in init.declarations:
                    if decl.init is not None and scope.kind.get(decl.name) == "v":
                        return True
            elif isinstance(init, ast.ExprStmt) and isinstance(init.expr, ast.Assignment):
                target = init.expr.target
                if isinstance(target, ast.Identifier) and scope.kind.get(target.name) == "v":
                    return True
        return self._body_has_masked_kills(node.body, scope, False)

    def _body_has_masked_kills(self, block, scope, rel_div, in_inner=False) -> bool:
        for stmt in block.statements:
            if isinstance(stmt, ast.ReturnStmt):
                if rel_div:
                    return True
            elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
                if rel_div and not in_inner:
                    return True
            elif isinstance(stmt, ast.Block):
                if self._body_has_masked_kills(stmt, scope, rel_div, in_inner):
                    return True
            elif isinstance(stmt, ast.IfStmt):
                ck = self._c_expr(stmt.condition, ScopeView(scope), False)
                branch = rel_div or ck == "v"
                if self._body_has_masked_kills(stmt.then_body, scope, branch, in_inner):
                    return True
                if stmt.else_body is not None and self._body_has_masked_kills(
                    stmt.else_body, scope, branch, in_inner
                ):
                    return True
            elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoWhileStmt)):
                inner_masked = self._loop_masked(stmt, scope, rel_div)
                if self._body_has_masked_kills(
                    stmt.body, scope, rel_div or inner_masked, True
                ):
                    return True
        return False

    def _contains_kills(self, block, in_inner_loop=False) -> bool:
        """Any return, or break/continue escaping to an enclosing loop."""
        for stmt in block.statements:
            if isinstance(stmt, ast.ReturnStmt):
                return True
            if isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
                if not in_inner_loop:
                    return True
            elif isinstance(stmt, ast.Block):
                if self._contains_kills(stmt, in_inner_loop):
                    return True
            elif isinstance(stmt, ast.IfStmt):
                if self._contains_kills(stmt.then_body, in_inner_loop):
                    return True
                if stmt.else_body is not None and self._contains_kills(
                    stmt.else_body, in_inner_loop
                ):
                    return True
            elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoWhileStmt)):
                if self._contains_kills(stmt.body, True):
                    return True
        return False

    def _stmt_kills(self, stmt) -> bool:
        if isinstance(stmt, (ast.ReturnStmt, ast.BreakStmt, ast.ContinueStmt)):
            return True
        if isinstance(stmt, ast.Block):
            return self._contains_kills(stmt)
        if isinstance(stmt, ast.IfStmt):
            if self._contains_kills(stmt.then_body):
                return True
            return stmt.else_body is not None and self._contains_kills(stmt.else_body)
        if isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoWhileStmt)):
            return self._contains_kills(stmt.body, True)
        return False


# -- syntactic facts of the range rules --------------------------------------
#: Built-ins that raise on no operand (the context queries among them).
QUIET_BUILTINS = CONTEXT_BUILTINS | frozenset(
    ("min", "max", "clamp", "abs", "fabs", "fmin", "fmax", "floor", "ceil",
     "round", "sign", "mad", "fma", "mix", "select")
)


def _is_float(expr) -> bool:
    return isinstance(expr.ctype, ScalarType) and expr.ctype.is_float


def _converts_to_int(ctype, expr) -> bool:
    """Whether storing ``expr`` into a ``ctype`` slot converts a float to an
    integer type (which raises where no int64 holds the value)."""
    return (
        isinstance(ctype, ScalarType)
        and ctype.is_integer
        and ctype.name != "bool"
        and _is_float(expr)
    )


_NONE: frozenset = frozenset()

#: :class:`Summary` flags.
BARRIER, CHANGES, SENSITIVE, LOUD = 1, 2, 4, 8

#: Fields of a node class that may hold a child node, by class.
_CHILD_FIELDS: dict = {}
_LEAF_FIELDS = frozenset(
    ("ctype", "op", "name", "postfix", "var_type", "address_space", "is_const", "target_type")
)


def _child_fields(cls) -> tuple:
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls) if f.name not in _LEAF_FIELDS)
        _CHILD_FIELDS[cls] = names
    return names


class Summary:
    """What one subtree does, for the range rules: the variables it
    assigns, declares and reads, and its flags -- :data:`BARRIER` (it holds
    a barrier), :data:`CHANGES` (it can change a variable: an assignment,
    ``++``/``--`` or a helper call), :data:`SENSITIVE` (evaluating it on a
    lane C skips could be observed: a load, a division, an assignment or a
    call other than an id query) and :data:`LOUD` (it can raise or change
    state: a load, assignment, ``++``/``--``, ``/`` or ``%``, helper call,
    built-in that can raise, or float-to-int conversion)."""

    __slots__ = ("assigned", "declared", "reads", "flags")

    def __init__(self, assigned, declared, reads, flags: int) -> None:
        self.assigned, self.declared, self.reads, self.flags = assigned, declared, reads, flags

    @property
    def barrier(self) -> bool:
        return bool(self.flags & BARRIER)

    @property
    def changes(self) -> bool:
        return bool(self.flags & CHANGES)

    @property
    def sensitive(self) -> bool:
        return bool(self.flags & SENSITIVE)

    @property
    def loud(self) -> bool:
        return bool(self.flags & LOUD)


#: The summary every literal shares.
_LITERAL = Summary(_NONE, _NONE, _NONE, 0)


def summarize(node, memo: dict) -> Summary:
    """The :class:`Summary` of ``node``'s subtree, memoized in ``memo`` (by
    node identity, and by name for an identifier) so a lowering visits each
    node once and allocates little."""
    cls = type(node)
    if cls in (ast.IntLiteral, ast.FloatLiteral, ast.BoolLiteral):
        return _LITERAL
    key = node.name if cls is ast.Identifier else id(node)
    out = memo.get(key)
    if out is not None:
        return out
    if cls is ast.Identifier:
        out = memo[key] = Summary(_NONE, _NONE, frozenset((node.name,)), 0)
        return out
    assigned = declared = reads = _NONE
    flags = 0
    for name in _child_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            children = (value,)
        elif isinstance(value, list):
            children = value
        else:
            continue
        for child in children:
            if not isinstance(child, ast.Node):
                continue
            sub = summarize(child, memo)
            if sub.assigned:
                assigned = assigned | sub.assigned
            if sub.declared:
                declared = declared | sub.declared
            if sub.reads:
                reads = reads | sub.reads
            flags |= sub.flags
    if cls is ast.Assignment:
        if isinstance(node.target, ast.Identifier):
            assigned = assigned | {node.target.name}
        flags |= CHANGES | SENSITIVE | LOUD
    elif cls is ast.UnaryOp:
        if node.op in ("++", "--"):
            if isinstance(node.operand, ast.Identifier):
                assigned = assigned | {node.operand.name}
            flags |= CHANGES | SENSITIVE | LOUD
        elif node.op == "~" and _is_float(node.operand):
            flags |= LOUD
    elif cls is ast.BinaryOp:
        if node.op in ("/", "%"):
            flags |= SENSITIVE | LOUD
        elif node.op in ("&", "|", "^", "<<", ">>") and (
            _is_float(node.left) or _is_float(node.right)
        ):
            flags |= LOUD
    elif cls is ast.Call:
        if node.name == "barrier":
            flags |= BARRIER
        if not is_builtin(node.name):
            flags |= CHANGES
        if node.name not in CONTEXT_BUILTINS:
            flags |= SENSITIVE
        if node.name not in QUIET_BUILTINS:
            flags |= LOUD
    elif cls is ast.VarDecl:
        declared = declared | {node.name}
    elif cls is ast.Index:
        flags |= SENSITIVE | LOUD
    elif cls is ast.InitList:
        flags |= LOUD
    elif cls is ast.Cast and _converts_to_int(node.target_type, node.expr):
        flags |= LOUD
    out = memo[key] = Summary(assigned, declared, reads, flags)
    return out


def _int_identifier(expr, name=None) -> bool:
    return (
        isinstance(expr, ast.Identifier)
        and (name is None or expr.name == name)
        and isinstance(expr.ctype, ScalarType)
        and expr.ctype.is_integer
        and expr.ctype.name != "bool"
    )


def counted_loop(stmt, memo: dict):
    """``(name, limit, step)`` of a ``for`` loop that counts an int variable
    up by a positive literal to a literal bound its body never assigns --
    ``for (int v = e; v < B; v += S)``, with ``v <= B``, ``v++``, ``++v``
    and ``v = v + S`` too -- where ``limit`` is the exclusive bound (``B``
    or ``B + 1``); ``None`` for any other loop."""
    if not isinstance(stmt, ast.ForStmt) or None in (stmt.init, stmt.condition, stmt.step):
        return None
    cond = stmt.condition
    if not (isinstance(cond, ast.BinaryOp) and cond.op in ("<", "<=")
            and _int_identifier(cond.left) and isinstance(cond.right, ast.IntLiteral)):
        return None
    name = cond.left.name
    init = stmt.init
    if isinstance(init, ast.DeclStmt):
        if len(init.declarations) != 1:
            return None
        decl = init.declarations[0]
        if decl.name != name or decl.array_size is not None or decl.init is None:
            return None
    elif not (isinstance(init, ast.ExprStmt) and isinstance(init.expr, ast.Assignment)
              and init.expr.op == "=" and _int_identifier(init.expr.target, name)):
        return None
    step = stmt.step
    size = None
    if isinstance(step, ast.UnaryOp) and step.op == "++" and _int_identifier(step.operand, name):
        size = 1
    elif isinstance(step, ast.Assignment) and _int_identifier(step.target, name):
        value = step.value
        if step.op == "+=" and isinstance(value, ast.IntLiteral):
            size = value.value
        elif step.op == "=" and isinstance(value, ast.BinaryOp) and value.op == "+":
            pair = (value.left, value.right)
            for a, b in (pair, pair[::-1]):
                if _int_identifier(a, name) and isinstance(b, ast.IntLiteral):
                    size = b.value
    body = summarize(stmt.body, memo)
    if size is None or size <= 0 or name in body.assigned or name in body.declared:
        return None
    limit = cond.right.value + (1 if cond.op == "<=" else 0)
    return name, limit, size


def shadowed_names(body, visible) -> set[str]:
    """Names some declaration in ``body`` makes while a declaration of the
    same name is still in scope.  Both backends keep one slot per name, so
    such a declaration overwrites the outer variable's value."""
    found: set[str] = set()

    def block(stmts, outer):
        local: set[str] = set()
        for stmt in stmts:
            statement(stmt, outer, local)

    def declare(decls, outer, local):
        for decl in decls:
            if decl.name in outer or decl.name in local:
                found.add(decl.name)
            local.add(decl.name)

    def statement(stmt, outer, local):
        if isinstance(stmt, ast.DeclStmt):
            declare(stmt.declarations, outer, local)
        elif isinstance(stmt, ast.Block):
            block(stmt.statements, outer | local)
        elif isinstance(stmt, ast.IfStmt):
            block(stmt.then_body.statements, outer | local)
            if stmt.else_body is not None:
                block(stmt.else_body.statements, outer | local)
        elif isinstance(stmt, ast.ForStmt):
            head: set[str] = set()
            if isinstance(stmt.init, ast.DeclStmt):
                declare(stmt.init.declarations, outer | local, head)
            block(stmt.body.statements, outer | local | head)
        elif isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
            block(stmt.body.statements, outer | local)

    block(body.statements, set(visible))
    return found


def unread_names(body, memo: dict) -> set[str]:
    """Scalar variables of ``body`` that no expression reads and that every
    declaration and assignment sets quietly (not loud, see :class:`Summary`;
    no float-to-int conversion) as a statement of its own: computing them
    is unobservable."""
    declared: set[str] = set()
    reads: set[str] = set()
    loud: set[str] = set()

    def read(expr) -> None:
        reads.update(summarize(expr, memo).reads)

    def quiet(expr) -> bool:
        return not summarize(expr, memo).loud

    def statement(stmt) -> None:
        if isinstance(stmt, ast.DeclStmt):
            for decl in stmt.declarations:
                if decl.array_size is not None:
                    read(decl.array_size)
                    if decl.init is not None:
                        read(decl.init)
                    continue
                declared.add(decl.name)
                if decl.init is not None:
                    if not quiet(decl.init) or _converts_to_int(decl.var_type, decl.init):
                        loud.add(decl.name)
                    read(decl.init)
        elif isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if (
                isinstance(expr, ast.Assignment)
                and expr.op == "="
                and isinstance(expr.target, ast.Identifier)
            ):
                if not quiet(expr.value) or _converts_to_int(expr.target.ctype, expr.value):
                    loud.add(expr.target.name)
                read(expr.value)
            else:
                read(expr)
        elif isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                statement(inner)
        elif isinstance(stmt, ast.IfStmt):
            read(stmt.condition)
            statement(stmt.then_body)
            if stmt.else_body is not None:
                statement(stmt.else_body)
        elif isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                statement(stmt.init)
            for expr in (stmt.condition, stmt.step):
                if expr is not None:
                    read(expr)
            statement(stmt.body)
        elif isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
            read(stmt.condition)
            statement(stmt.body)
        elif isinstance(stmt, ast.ReturnStmt) and stmt.value is not None:
            read(stmt.value)

    statement(body)
    return declared - reads - loud


def classify_kernel(
    program: ast.Program,
    kernel_name: str | None = None,
    local_size: tuple[int, ...] = (1,),
) -> tuple[UniformityAnalysis, Scope]:
    """Run the uniformity analysis on one kernel.

    Returns the analysis object (carrying ``has_masked_return`` and the
    helper summaries) and the kernel body's classified :class:`Scope`.
    """
    analysis = UniformityAnalysis(program, kernel_name, local_size)
    scope = analysis.kernel_scope()
    analysis._classify(analysis.kernel_def.body, scope, False, False)
    return analysis, scope
