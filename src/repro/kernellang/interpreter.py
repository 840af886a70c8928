"""AST interpreter: runs kernels of the subset on the clsim executor.

The interpreter turns a parsed kernel into a :class:`repro.clsim.Kernel`
whose body executes the AST once per work-item.  Global pointer arguments
are bound to :class:`repro.clsim.Buffer` objects and accessed *linearly*
(as OpenCL pointers are), with bounds checking and access counting;
``__local`` arrays live in the work group's
:class:`repro.clsim.LocalMemory`; private arrays and scalars live in a
per-work-item environment.

Work-group barriers (``barrier(CLK_LOCAL_MEM_FENCE)``) must appear as
expression statements; the interpreter yields
:data:`repro.clsim.kernel.BARRIER` at them, which the executor uses to run
all work-items of a group in lock-step — exactly what the prefetch /
reconstruct / compute phases of the perforated kernels require.
"""

from __future__ import annotations

import math

import numpy as np

from ..clsim.kernel import BARRIER, Kernel, KernelContext
from ..clsim.memory import Buffer
from ..clsim.ndrange import WorkItemId
from . import ast
from .builtins import (
    BUILTIN_CONSTANTS,
    CONTEXT_BUILTINS,
    SYNC_BUILTINS,
    get_builtin,
    is_builtin,
)
from .errors import InterpreterError
from .types import PointerType, ScalarType


class _BreakSignal(Exception):
    """Internal: a ``break`` statement was executed."""


class _ContinueSignal(Exception):
    """Internal: a ``continue`` statement was executed."""


class _ReturnSignal(Exception):
    """Internal: a ``return`` statement was executed."""

    def __init__(self, value) -> None:
        super().__init__("return")
        self.value = value


class _LocalArray:
    """A view of a named tile in the work group's local memory."""

    def __init__(self, ctx: KernelContext, name: str, length: int) -> None:
        self.ctx = ctx
        self.name = name
        self.length = length
        ctx.local.allocate(name, (length,), dtype=np.float64)

    def load(self, index: int) -> float:
        if not 0 <= index < self.length:
            raise InterpreterError(
                f"local array {self.name!r}: index {index} out of bounds [0, {self.length})"
            )
        return float(self.ctx.local.read(self.name, (index,)))

    def store(self, index: int, value: float) -> None:
        if not 0 <= index < self.length:
            raise InterpreterError(
                f"local array {self.name!r}: index {index} out of bounds [0, {self.length})"
            )
        self.ctx.local.write(self.name, (index,), value)


class _PrivateArray:
    """A fixed-size per-work-item array."""

    def __init__(self, name: str, length: int) -> None:
        self.name = name
        self.length = length
        self.values = np.zeros(length, dtype=np.float64)

    def load(self, index: int) -> float:
        if not 0 <= index < self.length:
            raise InterpreterError(
                f"private array {self.name!r}: index {index} out of bounds [0, {self.length})"
            )
        return float(self.values[index])

    def store(self, index: int, value: float) -> None:
        if not 0 <= index < self.length:
            raise InterpreterError(
                f"private array {self.name!r}: index {index} out of bounds [0, {self.length})"
            )
        self.values[index] = value


class _GlobalPointer:
    """Linear (flat) view of a global buffer, as an OpenCL pointer sees it."""

    def __init__(self, buffer: Buffer) -> None:
        self.buffer = buffer
        self._flat = buffer.array.reshape(-1)

    @property
    def length(self) -> int:
        return self._flat.size

    def load(self, index: int) -> float:
        if not 0 <= index < self.length:
            raise InterpreterError(
                f"global buffer {self.buffer.name!r}: index {index} out of bounds "
                f"[0, {self.length})"
            )
        self.buffer.record_reads(1)
        return float(self._flat[index])

    def store(self, index: int, value: float) -> None:
        if not 0 <= index < self.length:
            raise InterpreterError(
                f"global buffer {self.buffer.name!r}: index {index} out of bounds "
                f"[0, {self.length})"
            )
        self.buffer.record_writes(1)
        self._flat[index] = value


class _ConstantArray:
    """A file-scope ``__constant`` array (read-only)."""

    def __init__(self, name: str, values: np.ndarray) -> None:
        self.name = name
        self.values = values

    @property
    def length(self) -> int:
        return self.values.size

    def load(self, index: int) -> float:
        if not 0 <= index < self.length:
            raise InterpreterError(
                f"constant array {self.name!r}: index {index} out of bounds [0, {self.length})"
            )
        return float(self.values[index])

    def store(self, index: int, value: float) -> None:
        raise InterpreterError(f"constant array {self.name!r} is read-only")


_BINARY_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
    "<<": lambda a, b: int(a) << int(b),
    ">>": lambda a, b: int(a) >> int(b),
}


class KernelInterpreter:
    """Interprets one kernel of a parsed program."""

    def __init__(self, program: ast.Program, kernel_name: str | None = None) -> None:
        self.program = program
        self.kernel_def = program.kernel(kernel_name)
        self.functions = {f.name: f for f in program.functions}
        self.constants = self._evaluate_file_scope_constants()

    # ------------------------------------------------------------------
    def _evaluate_file_scope_constants(self) -> dict[str, object]:
        constants: dict[str, object] = {}
        for decl_stmt in self.program.globals:
            for decl in decl_stmt.declarations:
                if decl.init is None:
                    raise InterpreterError(
                        f"file-scope variable {decl.name!r} must have an initializer"
                    )
                if isinstance(decl.init, ast.InitList):
                    values = np.array(
                        [self._evaluate_constant(v) for v in decl.init.values],
                        dtype=np.float64,
                    )
                    constants[decl.name] = _ConstantArray(decl.name, values)
                else:
                    constants[decl.name] = self._evaluate_constant(decl.init)
        return constants

    def _evaluate_constant(self, expr: ast.Expr):
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.FloatLiteral):
            return expr.value
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            return -self._evaluate_constant(expr.operand)
        if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-", "*", "/"):
            left = self._evaluate_constant(expr.left)
            right = self._evaluate_constant(expr.right)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            return left / right
        raise InterpreterError("file-scope initializers must be constant expressions")

    # ------------------------------------------------------------------
    def as_clsim_kernel(self) -> Kernel:
        """Wrap the kernel as a :class:`repro.clsim.Kernel` (generator body)."""
        arg_names = [p.name for p in self.kernel_def.params]
        interpreter = self

        def body(ctx: KernelContext, wi: WorkItemId):
            yield from interpreter.execute_work_item(ctx, wi)

        return Kernel(
            self.kernel_def.name,
            body,
            arg_names,
            ast_program=self.program,
            ast_kernel_name=self.kernel_def.name,
        )

    # ------------------------------------------------------------------
    def execute_work_item(self, ctx: KernelContext, wi: WorkItemId):
        """Generator executing the kernel body for one work-item."""
        env = self._build_environment(ctx)
        try:
            yield from self._exec_block(self.kernel_def.body, env, ctx, wi)
        except _ReturnSignal:
            return

    def _build_environment(self, ctx: KernelContext) -> dict[str, object]:
        env: dict[str, object] = dict(self.constants)
        for param in self.kernel_def.params:
            value = ctx.arg(param.name)
            if isinstance(param.param_type, PointerType):
                if isinstance(value, Buffer):
                    env[param.name] = _GlobalPointer(value)
                elif isinstance(value, (_GlobalPointer, _LocalArray, _ConstantArray)):
                    env[param.name] = value
                else:
                    raise InterpreterError(
                        f"pointer argument {param.name!r} must be bound to a Buffer"
                    )
            else:
                env[param.name] = value
        return env

    # ------------------------------------------------------------------
    # Statements (generators so barriers propagate out of nested blocks).
    # ------------------------------------------------------------------
    def _exec_block(self, block: ast.Block, env, ctx, wi):
        for stmt in block.statements:
            yield from self._exec_stmt(stmt, env, ctx, wi)

    def _exec_stmt(self, stmt: ast.Stmt, env, ctx, wi):
        if isinstance(stmt, ast.DeclStmt):
            for decl in stmt.declarations:
                self._exec_decl(decl, env, ctx, wi)
            return
        if isinstance(stmt, ast.ExprStmt):
            if (
                isinstance(stmt.expr, ast.Call)
                and stmt.expr.name in SYNC_BUILTINS
            ):
                if stmt.expr.name == "barrier":
                    yield BARRIER
                return
            self._eval(stmt.expr, env, ctx, wi)
            return
        if isinstance(stmt, ast.Block):
            yield from self._exec_block(stmt, env, ctx, wi)
            return
        if isinstance(stmt, ast.IfStmt):
            if self._truthy(self._eval(stmt.condition, env, ctx, wi)):
                yield from self._exec_block(stmt.then_body, env, ctx, wi)
            elif stmt.else_body is not None:
                yield from self._exec_block(stmt.else_body, env, ctx, wi)
            return
        if isinstance(stmt, ast.ForStmt):
            yield from self._exec_for(stmt, env, ctx, wi)
            return
        if isinstance(stmt, ast.WhileStmt):
            while self._truthy(self._eval(stmt.condition, env, ctx, wi)):
                try:
                    yield from self._exec_block(stmt.body, env, ctx, wi)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return
        if isinstance(stmt, ast.DoWhileStmt):
            while True:
                try:
                    yield from self._exec_block(stmt.body, env, ctx, wi)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if not self._truthy(self._eval(stmt.condition, env, ctx, wi)):
                    break
            return
        if isinstance(stmt, ast.ReturnStmt):
            value = None
            if stmt.value is not None:
                value = self._eval(stmt.value, env, ctx, wi)
            raise _ReturnSignal(value)
        if isinstance(stmt, ast.BreakStmt):
            raise _BreakSignal()
        if isinstance(stmt, ast.ContinueStmt):
            raise _ContinueSignal()
        raise InterpreterError(f"unsupported statement {type(stmt).__name__}")

    def _exec_for(self, stmt: ast.ForStmt, env, ctx, wi):
        if stmt.init is not None:
            yield from self._exec_stmt(stmt.init, env, ctx, wi)
        while True:
            if stmt.condition is not None and not self._truthy(
                self._eval(stmt.condition, env, ctx, wi)
            ):
                break
            try:
                yield from self._exec_block(stmt.body, env, ctx, wi)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            if stmt.step is not None:
                self._eval(stmt.step, env, ctx, wi)

    def _exec_decl(self, decl: ast.VarDecl, env, ctx, wi) -> None:
        if decl.array_size is not None:
            length = int(self._eval(decl.array_size, env, ctx, wi))
            if length <= 0:
                raise InterpreterError(
                    f"array {decl.name!r} must have a positive size, got {length}"
                )
            if decl.address_space == "local":
                env[decl.name] = _LocalArray(ctx, decl.name, length)
            else:
                array = _PrivateArray(decl.name, length)
                if isinstance(decl.init, ast.InitList):
                    for i, value_expr in enumerate(decl.init.values):
                        array.store(i, self._eval(value_expr, env, ctx, wi))
                env[decl.name] = array
            return
        value = 0
        if decl.init is not None:
            value = self._eval(decl.init, env, ctx, wi)
        if isinstance(decl.var_type, ScalarType) and decl.var_type.is_integer:
            value = int(value)
        env[decl.name] = value

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _eval(self, expr: ast.Expr, env, ctx, wi):
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.FloatLiteral):
            return expr.value
        if isinstance(expr, ast.BoolLiteral):
            return 1 if expr.value else 0
        if isinstance(expr, ast.Identifier):
            if expr.name in env:
                return env[expr.name]
            if expr.name in BUILTIN_CONSTANTS:
                return BUILTIN_CONSTANTS[expr.name]
            raise InterpreterError(f"undefined identifier {expr.name!r}")
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, env, ctx, wi)
        if isinstance(expr, ast.BinaryOp):
            # && and || short-circuit, exactly as in C; this matters for
            # guard patterns such as ``j >= 0 && window[j] > key``.
            if expr.op == "&&":
                if not self._truthy(self._eval(expr.left, env, ctx, wi)):
                    return 0
                return 1 if self._truthy(self._eval(expr.right, env, ctx, wi)) else 0
            if expr.op == "||":
                if self._truthy(self._eval(expr.left, env, ctx, wi)):
                    return 1
                return 1 if self._truthy(self._eval(expr.right, env, ctx, wi)) else 0
            left = self._eval(expr.left, env, ctx, wi)
            right = self._eval(expr.right, env, ctx, wi)
            return self._apply_binary(expr.op, left, right)
        if isinstance(expr, ast.Assignment):
            return self._eval_assignment(expr, env, ctx, wi)
        if isinstance(expr, ast.Ternary):
            if self._truthy(self._eval(expr.condition, env, ctx, wi)):
                return self._eval(expr.if_true, env, ctx, wi)
            return self._eval(expr.if_false, env, ctx, wi)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env, ctx, wi)
        if isinstance(expr, ast.Index):
            target = self._eval(expr.base, env, ctx, wi)
            index = int(self._eval(expr.index, env, ctx, wi))
            return self._load_indexed(target, index)
        if isinstance(expr, ast.Cast):
            value = self._eval(expr.expr, env, ctx, wi)
            if isinstance(expr.target_type, ScalarType) and expr.target_type.is_integer:
                return int(value)
            if isinstance(expr.target_type, ScalarType) and expr.target_type.is_float:
                return float(value)
            return value
        raise InterpreterError(f"unsupported expression {type(expr).__name__}")

    def _eval_unary(self, expr: ast.UnaryOp, env, ctx, wi):
        if expr.op in ("++", "--"):
            delta = 1 if expr.op == "++" else -1
            old = self._eval(expr.operand, env, ctx, wi)
            self._store_to(expr.operand, old + delta, env, ctx, wi)
            return old if expr.postfix else old + delta
        operand = self._eval(expr.operand, env, ctx, wi)
        if expr.op == "-":
            return -operand
        if expr.op == "+":
            return operand
        if expr.op == "!":
            return 0 if self._truthy(operand) else 1
        if expr.op == "~":
            return ~int(operand)
        raise InterpreterError(f"unsupported unary operator {expr.op!r}")

    def _apply_binary(self, op: str, left, right):
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                if right == 0:
                    raise InterpreterError("integer division by zero")
                # C semantics: truncation toward zero, computed exactly in
                # integer arithmetic (float-mediated int(left / right) loses
                # precision beyond 2**53).
                quotient = left // right
                if left % right != 0 and (left < 0) != (right < 0):
                    quotient += 1
                return quotient
            if right == 0:
                raise InterpreterError("division by zero")
            return left / right
        if op == "%":
            if right == 0:
                raise InterpreterError("modulo by zero")
            if isinstance(left, int) and isinstance(right, int):
                return int(math.fmod(left, right))
            return math.fmod(left, right)
        try:
            handler = _BINARY_OPS[op]
        except KeyError as exc:
            raise InterpreterError(f"unsupported binary operator {op!r}") from exc
        result = handler(left, right)
        if isinstance(result, bool):
            return 1 if result else 0
        return result

    def _eval_assignment(self, expr: ast.Assignment, env, ctx, wi):
        value = self._eval(expr.value, env, ctx, wi)
        if expr.op != "=":
            current = self._eval(expr.target, env, ctx, wi)
            value = self._apply_binary(expr.op[:-1], current, value)
        self._store_to(expr.target, value, env, ctx, wi)
        return value

    def _store_to(self, target: ast.Expr, value, env, ctx, wi) -> None:
        if isinstance(target, ast.Identifier):
            if target.name not in env:
                raise InterpreterError(f"assignment to undefined variable {target.name!r}")
            existing = env[target.name]
            if isinstance(existing, int) and not isinstance(value, (bool,)) and isinstance(value, float):
                # follow C: assigning a float to an int variable truncates
                env[target.name] = int(value)
            else:
                env[target.name] = value
            return
        if isinstance(target, ast.Index):
            container = self._eval(target.base, env, ctx, wi)
            index = int(self._eval(target.index, env, ctx, wi))
            self._store_indexed(container, index, value)
            return
        raise InterpreterError("assignment target must be a variable or array element")

    @staticmethod
    def _load_indexed(container, index: int):
        if isinstance(container, (_GlobalPointer, _LocalArray, _PrivateArray, _ConstantArray)):
            return container.load(index)
        raise InterpreterError(f"cannot index value of type {type(container).__name__}")

    @staticmethod
    def _store_indexed(container, index: int, value) -> None:
        if isinstance(container, (_GlobalPointer, _LocalArray, _PrivateArray)):
            container.store(index, float(value))
            return
        raise InterpreterError(f"cannot assign into value of type {type(container).__name__}")

    # ------------------------------------------------------------------
    def _eval_call(self, call: ast.Call, env, ctx, wi):
        name = call.name
        if name in CONTEXT_BUILTINS:
            dim = int(self._eval(call.args[0], env, ctx, wi)) if call.args else 0
            return self._context_query(name, dim, ctx, wi)
        if name in SYNC_BUILTINS:
            raise InterpreterError(
                "barrier()/mem_fence() may only appear as standalone statements"
            )
        if is_builtin(name):
            builtin = get_builtin(name)
            args = [self._eval(arg, env, ctx, wi) for arg in call.args]
            try:
                return builtin.impl(*args)
            except Exception as exc:
                raise InterpreterError(f"built-in {name!r} failed: {exc}") from exc
        if name in self.functions:
            return self._call_user_function(self.functions[name], call, env, ctx, wi)
        raise InterpreterError(f"call to unknown function {name!r}")

    @staticmethod
    def _context_query(name: str, dim: int, ctx: KernelContext, wi: WorkItemId) -> int:
        if name == "get_global_id":
            return wi.global_id[dim]
        if name == "get_local_id":
            return wi.local_id[dim]
        if name == "get_group_id":
            return wi.group_id[dim]
        if name == "get_global_size":
            return ctx.get_global_size(dim)
        if name == "get_local_size":
            return ctx.get_local_size(dim)
        if name == "get_num_groups":
            return ctx.get_num_groups(dim)
        raise InterpreterError(f"unknown context built-in {name!r}")  # pragma: no cover

    def _call_user_function(self, func: ast.FunctionDef, call: ast.Call, env, ctx, wi):
        if len(call.args) != len(func.params):
            raise InterpreterError(
                f"function {func.name!r} expects {len(func.params)} arguments, "
                f"got {len(call.args)}"
            )
        callee_env: dict[str, object] = dict(self.constants)
        for param, arg in zip(func.params, call.args):
            callee_env[param.name] = self._eval(arg, env, ctx, wi)
        try:
            for _ in self._exec_block(func.body, callee_env, ctx, wi):
                raise InterpreterError(
                    f"helper function {func.name!r} may not contain barriers"
                )
        except _ReturnSignal as signal:
            return signal.value
        return 0

    @staticmethod
    def _truthy(value) -> bool:
        return bool(value)


def compile_kernel(source: str, kernel_name: str | None = None) -> Kernel:
    """Parse ``source`` and return an executable :class:`repro.clsim.Kernel`."""
    from .parser import parse_program

    program = parse_program(source)
    return KernelInterpreter(program, kernel_name).as_clsim_kernel()
