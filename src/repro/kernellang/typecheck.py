"""Semantic analysis for the OpenCL C subset: the one place that types kernels.

The checker validates name resolution, call arities, assignment targets and
basic type compatibility.  It is deliberately permissive about implicit
numeric conversions (as OpenCL C is) but rejects the errors that actually
bite when writing or generating kernels: undefined identifiers, indexing
non-pointer values, assigning to r-values, calling unknown functions with
the wrong number of arguments, and re-declaring names in the same scope.

It also records the C type of every expression on the node
(:attr:`~repro.kernellang.ast.Expr.ctype`): operators and ``?:`` arms take
their operands' usual arithmetic conversions
(:func:`~repro.kernellang.types.common_type`), a helper call its declared
return type, and a built-in the type :mod:`repro.kernellang.builtins`
gives it.  Both backends follow these types: the interpreter converts
values where C converts them, and the lowering reads its dtypes from them.
Every program a backend runs is checked once (:func:`ensure_checked`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .builtins import BUILTIN_CONSTANTS, get_builtin, is_builtin
from .errors import SymbolError, TypeError_
from .symbols import Symbol, SymbolTable
from .types import (
    ArrayType,
    BOOL,
    FLOAT,
    INT,
    PointerType,
    ScalarType,
    Type,
    VOID,
    common_type,
)


@dataclass
class CheckResult:
    """Outcome of checking one program."""

    kernel_names: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


class TypeChecker:
    """Checks a :class:`~repro.kernellang.ast.Program`."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.symbols = SymbolTable()
        self.result = CheckResult()
        self._functions: dict[str, ast.FunctionDef] = {}
        self._current_return: Type = VOID

    # ------------------------------------------------------------------
    def check(self) -> CheckResult:
        """Check the whole program; raises on the first error."""
        for decl_stmt in self.program.globals:
            self._check_decl(decl_stmt, file_scope=True)
        for func in self.program.functions:
            self._functions[func.name] = func
        for func in self.program.functions:
            self._check_function(func)
            if func.is_kernel:
                self.result.kernel_names.append(func.name)
        return self.result

    # ------------------------------------------------------------------
    def _check_function(self, func: ast.FunctionDef) -> None:
        self.symbols.push(name=func.name)
        self._current_return = func.return_type
        if func.is_kernel and func.return_type != VOID:
            raise TypeError_(f"kernel {func.name!r} must return void")
        for param in func.params:
            addr = "private"
            is_const = False
            length = None
            if isinstance(param.param_type, PointerType):
                addr = param.param_type.address_space
                is_const = param.param_type.is_const
            elif isinstance(param.param_type, ArrayType):
                addr = param.param_type.address_space
                length = param.param_type.length
            self.symbols.define(
                Symbol(
                    name=param.name,
                    sym_type=param.param_type,
                    address_space=addr,
                    is_const=is_const,
                    is_param=True,
                    array_length=length,
                )
            )
        self._check_block(func.body, push_scope=False)
        self.symbols.pop()

    # ------------------------------------------------------------------
    def _check_block(self, block: ast.Block, push_scope: bool = True) -> None:
        if push_scope:
            self.symbols.push()
        for stmt in block.statements:
            self._check_stmt(stmt)
        if push_scope:
            self.symbols.pop()

    def _check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.DeclStmt):
            self._check_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr)
        elif isinstance(stmt, ast.Block):
            self._check_block(stmt)
        elif isinstance(stmt, ast.IfStmt):
            self._check_expr(stmt.condition)
            self._check_block(stmt.then_body)
            if stmt.else_body is not None:
                self._check_block(stmt.else_body)
        elif isinstance(stmt, ast.ForStmt):
            self.symbols.push(name="for")
            if stmt.init is not None:
                self._check_stmt(stmt.init)
            if stmt.condition is not None:
                self._check_expr(stmt.condition)
            if stmt.step is not None:
                self._check_expr(stmt.step)
            self._check_block(stmt.body)
            self.symbols.pop()
        elif isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
            self._check_expr(stmt.condition)
            self._check_block(stmt.body)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                value_type = self._check_expr(stmt.value)
                if self._current_return == VOID:
                    raise TypeError_("void function returns a value")
                _ = value_type
            elif self._current_return != VOID:
                self.result.warnings.append("non-void function returns without a value")
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            return
        else:  # pragma: no cover - defensive
            raise TypeError_(f"unsupported statement {type(stmt).__name__}")

    def _check_decl(self, stmt: ast.DeclStmt, file_scope: bool = False) -> None:
        for decl in stmt.declarations:
            length = None
            sym_type: Type = decl.var_type
            if decl.array_size is not None:
                self._check_expr(decl.array_size)
                length = -1
                sym_type = ArrayType(decl.var_type, 0, decl.address_space)
            if self.symbols.current.is_defined_locally(decl.name):
                raise SymbolError(
                    f"variable {decl.name!r} is already defined in this scope"
                )
            self.symbols.define(
                Symbol(
                    name=decl.name,
                    sym_type=sym_type,
                    address_space=decl.address_space,
                    is_const=decl.is_const,
                    array_length=length,
                )
            )
            if decl.init is not None:
                if isinstance(decl.init, ast.InitList):
                    for value in decl.init.values:
                        self._check_expr(value)
                else:
                    self._check_expr(decl.init)
            if file_scope and decl.address_space not in ("constant", "private"):
                self.result.warnings.append(
                    f"file-scope variable {decl.name!r} should be __constant"
                )

    # ------------------------------------------------------------------
    def _check_expr(self, expr: ast.Expr) -> Type:
        expr.ctype = ctype = self._expr_type(expr)
        return ctype

    def _expr_type(self, expr: ast.Expr) -> Type:
        if isinstance(expr, ast.IntLiteral):
            return INT
        if isinstance(expr, ast.FloatLiteral):
            return FLOAT
        if isinstance(expr, ast.BoolLiteral):
            return BOOL
        if isinstance(expr, ast.Identifier):
            if expr.name in BUILTIN_CONSTANTS:
                return FLOAT if isinstance(BUILTIN_CONSTANTS[expr.name], float) else INT
            symbol = self.symbols.lookup(expr.name)
            return symbol.sym_type
        if isinstance(expr, ast.UnaryOp):
            operand = self._check_expr(expr.operand)
            if expr.op in ("++", "--") and not self._is_lvalue(expr.operand):
                raise TypeError_(f"operand of {expr.op!r} must be an l-value")
            if expr.op == "!":
                return BOOL
            return operand
        if isinstance(expr, ast.BinaryOp):
            left = self._check_expr(expr.left)
            right = self._check_expr(expr.right)
            if expr.op in ("&&", "||", "==", "!=", "<", ">", "<=", ">="):
                return BOOL
            if expr.op in ("&", "|", "^", "<<", ">>"):
                return INT  # float operands truncate, as the backends do
            if isinstance(left, PointerType) or isinstance(right, PointerType):
                # pointer arithmetic: pointer +/- integer keeps the pointer type
                pointer = left if isinstance(left, PointerType) else right
                return pointer
            if isinstance(left, ScalarType) and isinstance(right, ScalarType):
                return common_type(left, right)
            raise TypeError_(
                f"operator {expr.op!r} cannot combine {left} and {right}"
            )
        if isinstance(expr, ast.Assignment):
            if not self._is_lvalue(expr.target):
                raise TypeError_("left side of assignment is not assignable")
            target_type = self._check_expr(expr.target)
            self._check_expr(expr.value)
            return target_type
        if isinstance(expr, ast.Ternary):
            self._check_expr(expr.condition)
            if_true = self._check_expr(expr.if_true)
            if_false = self._check_expr(expr.if_false)
            if isinstance(if_true, ScalarType) and isinstance(if_false, ScalarType):
                return common_type(if_true, if_false)
            return if_true
        if isinstance(expr, ast.Call):
            return self._check_call(expr)
        if isinstance(expr, ast.Index):
            base = self._check_expr(expr.base)
            index_type = self._check_expr(expr.index)
            if isinstance(index_type, ScalarType) and index_type.is_float:
                raise TypeError_("array index must have integer type")
            if isinstance(base, PointerType):
                return base.pointee
            if isinstance(base, ArrayType):
                return base.element
            raise TypeError_(f"cannot index a value of type {base}")
        if isinstance(expr, ast.Cast):
            self._check_expr(expr.expr)
            return expr.target_type
        if isinstance(expr, ast.InitList):
            for value in expr.values:
                self._check_expr(value)
            return FLOAT
        raise TypeError_(f"unsupported expression {type(expr).__name__}")  # pragma: no cover

    def _check_call(self, call: ast.Call) -> Type:
        if is_builtin(call.name):
            builtin = get_builtin(call.name)
            if not builtin.min_args <= len(call.args) <= builtin.max_args:
                raise TypeError_(
                    f"built-in {call.name!r} expects between {builtin.min_args} and "
                    f"{builtin.max_args} arguments, got {len(call.args)}"
                )
            arg_types = [self._check_expr(arg) for arg in call.args]
            if not builtin.generic:
                return builtin.result_type
            result = arg_types[0]
            for operand in arg_types[1 : builtin.generic]:
                result = common_type(result, operand)
            return result
        if call.name in self._functions:
            func = self._functions[call.name]
            if len(call.args) != len(func.params):
                raise TypeError_(
                    f"function {call.name!r} expects {len(func.params)} arguments, "
                    f"got {len(call.args)}"
                )
            for arg in call.args:
                self._check_expr(arg)
            return func.return_type
        raise SymbolError(f"call to undefined function {call.name!r}")

    @staticmethod
    def _is_lvalue(expr: ast.Expr) -> bool:
        return isinstance(expr, (ast.Identifier, ast.Index))


def check_program(program: ast.Program) -> CheckResult:
    """Type-check ``program``, recording every expression's C type on it."""
    result = TypeChecker(program).check()
    program.checked = True
    return result


def ensure_checked(program: ast.Program) -> None:
    """Type-check ``program`` unless it already carries its C types."""
    if not program.checked:
        check_program(program)
