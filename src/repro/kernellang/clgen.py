"""OpenCL C code generation from the AST.

The code generator turns (possibly transformed) kernel ASTs back into
OpenCL C source.  This is how the perforation framework produces an
artefact a user could compile with a real OpenCL runtime: the perforated +
reconstructed kernels emitted by :mod:`repro.kernellang.transforms` are
valid OpenCL C for the subset we support.

The emitted source is also the *canonical form* of a program: two ASTs
that print identically are the same kernel.
"""

from __future__ import annotations

from . import ast
from .errors import KernelLangError
from .types import ArrayType, PointerType, ScalarType, Type

_INDENT = "    "


def _format_float(value: float) -> str:
    """Format a float literal with an explicit ``f`` suffix (OpenCL style)."""
    if value == int(value) and abs(value) < 1e16:
        return f"{value:.1f}f"
    return f"{value!r}f"


def _address_space_prefix(space: str) -> str:
    if space == "private":
        return ""
    return f"__{space} "


class CodeGenerator:
    """Pretty-prints AST nodes as OpenCL C."""

    def __init__(self, indent: str = _INDENT) -> None:
        self.indent = indent

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    def format_type(self, t: Type) -> str:
        if isinstance(t, ScalarType):
            return t.name
        if isinstance(t, PointerType):
            const = "const " if t.is_const else ""
            return f"{_address_space_prefix(t.address_space)}{const}{self.format_type(t.pointee)}*"
        if isinstance(t, ArrayType):
            return f"{_address_space_prefix(t.address_space)}{self.format_type(t.element)}"
        raise KernelLangError(f"cannot format type {t!r}")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def expr(self, node: ast.Expr) -> str:
        if isinstance(node, ast.IntLiteral):
            return str(node.value)
        if isinstance(node, ast.FloatLiteral):
            return _format_float(node.value)
        if isinstance(node, ast.BoolLiteral):
            return "true" if node.value else "false"
        if isinstance(node, ast.Identifier):
            return node.name
        if isinstance(node, ast.UnaryOp):
            operand = self._maybe_paren(node.operand)
            if node.postfix:
                return f"{operand}{node.op}"
            return f"{node.op}{operand}"
        if isinstance(node, ast.BinaryOp):
            left = self._maybe_paren(node.left)
            right = self._maybe_paren(node.right)
            return f"{left} {node.op} {right}"
        if isinstance(node, ast.Assignment):
            return f"{self.expr(node.target)} {node.op} {self.expr(node.value)}"
        if isinstance(node, ast.Ternary):
            return (
                f"({self._maybe_paren(node.condition)} ? "
                f"{self.expr(node.if_true)} : {self.expr(node.if_false)})"
            )
        if isinstance(node, ast.Call):
            args = ", ".join(self.expr(a) for a in node.args)
            return f"{node.name}({args})"
        if isinstance(node, ast.Index):
            return f"{self._maybe_paren(node.base)}[{self.expr(node.index)}]"
        if isinstance(node, ast.Cast):
            return f"({self.format_type(node.target_type)})({self.expr(node.expr)})"
        if isinstance(node, ast.InitList):
            return "{" + ", ".join(self.expr(v) for v in node.values) + "}"
        raise KernelLangError(f"cannot generate code for {type(node).__name__}")

    def _maybe_paren(self, node: ast.Expr) -> str:
        text = self.expr(node)
        # UnaryOp must be parenthesized too: ``-(-v)`` would otherwise print
        # as ``--v`` (predecrement) — wrong C, and two different kernels
        # with one canonical form.
        if isinstance(
            node,
            (ast.BinaryOp, ast.Assignment, ast.Ternary, ast.UnaryOp),
        ):
            return f"({text})"
        return text

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def stmt(self, node: ast.Stmt, level: int = 0) -> list[str]:
        pad = self.indent * level
        if isinstance(node, ast.DeclStmt):
            return [pad + self._decl_stmt(node)]
        if isinstance(node, ast.ExprStmt):
            return [pad + self.expr(node.expr) + ";"]
        if isinstance(node, ast.Block):
            lines = [pad + "{"]
            for child in node.statements:
                lines.extend(self.stmt(child, level + 1))
            lines.append(pad + "}")
            return lines
        if isinstance(node, ast.IfStmt):
            lines = [pad + f"if ({self.expr(node.condition)}) {{"]
            for child in node.then_body.statements:
                lines.extend(self.stmt(child, level + 1))
            if node.else_body is not None:
                lines.append(pad + "} else {")
                for child in node.else_body.statements:
                    lines.extend(self.stmt(child, level + 1))
            lines.append(pad + "}")
            return lines
        if isinstance(node, ast.ForStmt):
            init = ""
            if node.init is not None:
                if isinstance(node.init, ast.DeclStmt):
                    init = self._decl_stmt(node.init).rstrip(";")
                elif isinstance(node.init, ast.ExprStmt):
                    init = self.expr(node.init.expr)
            cond = self.expr(node.condition) if node.condition is not None else ""
            step = self.expr(node.step) if node.step is not None else ""
            lines = [pad + f"for ({init}; {cond}; {step}) {{"]
            for child in node.body.statements:
                lines.extend(self.stmt(child, level + 1))
            lines.append(pad + "}")
            return lines
        if isinstance(node, ast.WhileStmt):
            lines = [pad + f"while ({self.expr(node.condition)}) {{"]
            for child in node.body.statements:
                lines.extend(self.stmt(child, level + 1))
            lines.append(pad + "}")
            return lines
        if isinstance(node, ast.DoWhileStmt):
            lines = [pad + "do {"]
            for child in node.body.statements:
                lines.extend(self.stmt(child, level + 1))
            lines.append(pad + f"}} while ({self.expr(node.condition)});")
            return lines
        if isinstance(node, ast.ReturnStmt):
            if node.value is None:
                return [pad + "return;"]
            return [pad + f"return {self.expr(node.value)};"]
        if isinstance(node, ast.BreakStmt):
            return [pad + "break;"]
        if isinstance(node, ast.ContinueStmt):
            return [pad + "continue;"]
        raise KernelLangError(f"cannot generate code for {type(node).__name__}")

    def _decl_stmt(self, node: ast.DeclStmt) -> str:
        parts = []
        for decl in node.declarations:
            parts.append(self._declarator(decl))
        # Declarations with different base types cannot be merged; the parser
        # only produces homogeneous DeclStmts, so joining is safe.
        if len(parts) == 1:
            return parts[0] + ";"
        return "; ".join(parts) + ";"

    def _declarator(self, decl: ast.VarDecl) -> str:
        prefix = _address_space_prefix(decl.address_space)
        const = "const " if decl.is_const else ""
        if isinstance(decl.var_type, PointerType):
            type_text = self.format_type(decl.var_type)
            text = f"{const}{type_text} {decl.name}"
        else:
            type_text = self.format_type(decl.var_type)
            text = f"{prefix}{const}{type_text} {decl.name}"
        if decl.array_size is not None:
            text += f"[{self.expr(decl.array_size)}]"
        if decl.init is not None:
            text += f" = {self.expr(decl.init)}"
        return text

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def param(self, node: ast.Param) -> str:
        if isinstance(node.param_type, PointerType):
            return f"{self.format_type(node.param_type)} {node.name}"
        if isinstance(node.param_type, ArrayType):
            return (
                f"{self.format_type(node.param_type)} {node.name}"
                f"[{node.param_type.length}]"
            )
        return f"{self.format_type(node.param_type)} {node.name}"

    def function(self, node: ast.FunctionDef) -> str:
        qualifier = "__kernel " if node.is_kernel else ""
        params = ", ".join(self.param(p) for p in node.params)
        header = f"{qualifier}{self.format_type(node.return_type)} {node.name}({params}) {{"
        lines = [header]
        for stmt in node.body.statements:
            lines.extend(self.stmt(stmt, 1))
        lines.append("}")
        return "\n".join(lines)

    def program(self, node: ast.Program) -> str:
        chunks = []
        for decl in node.globals:
            chunks.append(self._decl_stmt(decl))
        for func in node.functions:
            chunks.append(self.function(func))
        return "\n\n".join(chunks) + "\n"


def generate(node: ast.Node) -> str:
    """Generate OpenCL C source for a program, function, statement or expression."""
    gen = CodeGenerator()
    if isinstance(node, ast.Program):
        return gen.program(node)
    if isinstance(node, ast.FunctionDef):
        return gen.function(node)
    if isinstance(node, ast.Stmt):
        return "\n".join(gen.stmt(node))
    if isinstance(node, ast.Expr):
        return gen.expr(node)
    raise KernelLangError(f"cannot generate code for {type(node).__name__}")
