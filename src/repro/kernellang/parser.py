"""Recursive-descent parser for the OpenCL C subset; binary expressions are
parsed by precedence climbing (Pratt's top-down operator precedence)."""

from __future__ import annotations

from typing import Optional

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenKind
from .types import (
    AddressSpace,
    ArrayType,
    PointerType,
    ScalarType,
    Type,
    is_type_name,
    scalar,
)

_ADDRESS_SPACE_KEYWORDS = {
    "__global",
    "global",
    "__local",
    "local",
    "__constant",
    "constant",
    "__private",
    "private",
}

_QUALIFIER_KEYWORDS = _ADDRESS_SPACE_KEYWORDS | {"const", "restrict", "volatile"}

_ASSIGNMENT_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")

# Binary operator precedence levels, lowest first, each left-associative.
_BINARY_LEVELS = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]

#: Each binary operator's level in ``_BINARY_LEVELS``.  Only punctuator
#: tokens carry operator text, so a token's text alone finds its level.
_BINARY_PRECEDENCE = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}


class Parser:
    """Parses a token stream into a :class:`~repro.kernellang.ast.Program`."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        # The list ends in EOF, which _advance never passes: clamp look-aheads.
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _check_punct(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind is TokenKind.PUNCT and tok.text == text

    def _check_keyword(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind is TokenKind.KEYWORD and tok.text == text

    def _accept_punct(self, text: str) -> bool:
        if self._check_punct(text):
            self._advance()
            return True
        return False

    def _accept_keyword(self, text: str) -> bool:
        if self._check_keyword(text):
            self._advance()
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        if not self._check_punct(text):
            tok = self._peek()
            raise ParseError(f"expected {text!r} at {tok.location}, found {tok.text!r}")
        return self._advance()

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier at {tok.location}, found {tok.text!r}")
        return self._advance()

    # ------------------------------------------------------------------
    # Types and qualifiers
    # ------------------------------------------------------------------
    def _at_declaration(self) -> bool:
        """Whether the upcoming tokens start a declaration."""
        tok = self._peek()
        if tok.kind is TokenKind.KEYWORD:
            return tok.text in _QUALIFIER_KEYWORDS or is_type_name(tok.text)
        return False

    def _parse_qualifiers(self) -> tuple[str, bool]:
        """Parse leading qualifiers; returns (address_space, is_const)."""
        address_space = AddressSpace.PRIVATE
        is_const = False
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.KEYWORD and tok.text in _ADDRESS_SPACE_KEYWORDS:
                address_space = AddressSpace.normalize(tok.text)
                self._advance()
            elif tok.is_keyword("const"):
                is_const = True
                self._advance()
            elif tok.is_keyword("restrict") or tok.is_keyword("volatile"):
                self._advance()
            else:
                break
        return address_space, is_const

    def _parse_scalar_type(self) -> ScalarType:
        tok = self._peek()
        if tok.kind is TokenKind.KEYWORD and is_type_name(tok.text):
            self._advance()
            # allow trailing const (e.g. "float const")
            while self._accept_keyword("const"):
                pass
            return scalar(tok.text)
        raise ParseError(f"expected a type name at {tok.location}, found {tok.text!r}")

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while self._peek().kind is not TokenKind.EOF:
            is_kernel = False
            while self._accept_keyword("__kernel") or self._accept_keyword("kernel"):
                is_kernel = True
            address_space, is_const = self._parse_qualifiers()
            base_type = self._parse_scalar_type()
            is_pointer = False
            while self._accept_punct("*"):
                is_pointer = True
            name = self._expect_ident().text
            if self._check_punct("("):
                func = self._parse_function(name, base_type, is_kernel)
                program.functions.append(func)
            else:
                decl = self._parse_global_decl(
                    name, base_type, address_space, is_const, is_pointer
                )
                program.globals.append(decl)
        return program

    def _parse_global_decl(
        self,
        name: str,
        base_type: ScalarType,
        address_space: str,
        is_const: bool,
        is_pointer: bool,
    ) -> ast.DeclStmt:
        var_type: Type = base_type
        if is_pointer:
            var_type = PointerType(base_type, address_space, is_const)
        array_size: Optional[ast.Expr] = None
        if self._accept_punct("["):
            if not self._check_punct("]"):
                array_size = self.parse_expression()
            self._expect_punct("]")
        init: Optional[ast.Expr] = None
        if self._accept_punct("="):
            init = self._parse_initializer()
        self._expect_punct(";")
        decl = ast.VarDecl(
            name=name,
            var_type=var_type,
            address_space=address_space,
            is_const=is_const,
            array_size=array_size,
            init=init,
        )
        return ast.DeclStmt([decl])

    def _parse_function(
        self, name: str, return_type: ScalarType, is_kernel: bool
    ) -> ast.FunctionDef:
        self._expect_punct("(")
        params: list[ast.Param] = []
        if not self._check_punct(")"):
            while True:
                params.append(self._parse_param())
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        body = self._parse_block()
        return ast.FunctionDef(
            name=name,
            return_type=return_type,
            params=params,
            body=body,
            is_kernel=is_kernel,
        )

    def _parse_param(self) -> ast.Param:
        address_space, is_const = self._parse_qualifiers()
        base_type = self._parse_scalar_type()
        param_type: Type = base_type
        is_pointer = False
        while self._accept_punct("*"):
            is_pointer = True
        # allow "restrict"/"const" after the star
        while self._accept_keyword("restrict") or self._accept_keyword("const"):
            pass
        name = self._expect_ident().text
        if self._accept_punct("["):
            size_expr = None
            if not self._check_punct("]"):
                size_expr = self.parse_expression()
            self._expect_punct("]")
            length = _const_int(size_expr) if size_expr is not None else 0
            param_type = ArrayType(base_type, length, address_space)
        elif is_pointer:
            param_type = PointerType(base_type, address_space, is_const)
        return ast.Param(name=name, param_type=param_type)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _parse_block(self) -> ast.Block:
        self._expect_punct("{")
        statements: list[ast.Stmt] = []
        while not self._check_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError("unexpected end of input inside a block")
            statements.append(self.parse_statement())
        self._expect_punct("}")
        return ast.Block(statements)

    def parse_statement(self) -> ast.Stmt:
        tok = self._peek()
        if tok.is_punct("{"):
            return self._parse_block()
        if tok.is_punct(";"):
            self._advance()
            return ast.Block([])
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("do"):
            return self._parse_do_while()
        if tok.is_keyword("return"):
            self._advance()
            value = None
            if not self._check_punct(";"):
                value = self.parse_expression()
            self._expect_punct(";")
            return ast.ReturnStmt(value)
        if tok.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return ast.BreakStmt()
        if tok.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return ast.ContinueStmt()
        if self._at_declaration():
            decl = self._parse_declaration()
            self._expect_punct(";")
            return decl
        expr = self.parse_expression()
        self._expect_punct(";")
        return ast.ExprStmt(expr)

    def _parse_declaration(self) -> ast.DeclStmt:
        address_space, is_const = self._parse_qualifiers()
        base_type = self._parse_scalar_type()
        declarations: list[ast.VarDecl] = []
        while True:
            is_pointer = False
            while self._accept_punct("*"):
                is_pointer = True
            name = self._expect_ident().text
            var_type: Type = base_type
            if is_pointer:
                var_type = PointerType(base_type, address_space, is_const)
            array_size: Optional[ast.Expr] = None
            if self._accept_punct("["):
                if not self._check_punct("]"):
                    array_size = self.parse_expression()
                self._expect_punct("]")
            init: Optional[ast.Expr] = None
            if self._accept_punct("="):
                init = self._parse_initializer()
            declarations.append(
                ast.VarDecl(
                    name=name,
                    var_type=var_type,
                    address_space=address_space,
                    is_const=is_const,
                    array_size=array_size,
                    init=init,
                )
            )
            if not self._accept_punct(","):
                break
        return ast.DeclStmt(declarations)

    def _parse_initializer(self) -> ast.Expr:
        if self._check_punct("{"):
            self._advance()
            values: list[ast.Expr] = []
            if not self._check_punct("}"):
                while True:
                    values.append(self._parse_initializer())
                    if not self._accept_punct(","):
                        break
            self._expect_punct("}")
            return ast.InitList(values)
        return self.parse_assignment()

    def _parse_if(self) -> ast.IfStmt:
        self._advance()
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        then_body = self._statement_as_block()
        else_body = None
        if self._accept_keyword("else"):
            else_body = self._statement_as_block()
        return ast.IfStmt(condition, then_body, else_body)

    def _parse_for(self) -> ast.ForStmt:
        self._advance()
        self._expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not self._check_punct(";"):
            if self._at_declaration():
                init = self._parse_declaration()
            else:
                init = ast.ExprStmt(self.parse_expression())
        self._expect_punct(";")
        condition = None
        if not self._check_punct(";"):
            condition = self.parse_expression()
        self._expect_punct(";")
        step = None
        if not self._check_punct(")"):
            step = self.parse_expression()
        self._expect_punct(")")
        body = self._statement_as_block()
        return ast.ForStmt(init, condition, step, body)

    def _parse_while(self) -> ast.WhileStmt:
        self._advance()
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        body = self._statement_as_block()
        return ast.WhileStmt(condition, body)

    def _parse_do_while(self) -> ast.DoWhileStmt:
        self._advance()
        body = self._statement_as_block()
        if not self._accept_keyword("while"):
            raise ParseError(f"expected 'while' after do-body at {self._peek().location}")
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.DoWhileStmt(body, condition)

    def _statement_as_block(self) -> ast.Block:
        stmt = self.parse_statement()
        if isinstance(stmt, ast.Block):
            return stmt
        return ast.Block([stmt])

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        expr = self.parse_assignment()
        # The comma operator is not supported; kernels in the subset do not
        # use it outside of argument lists and for-steps.
        return expr

    def parse_assignment(self) -> ast.Expr:
        target = self._parse_ternary()
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in _ASSIGNMENT_OPS:
            op = self._advance().text
            value = self.parse_assignment()
            return ast.Assignment(op, target, value)
        return target

    def _parse_ternary(self) -> ast.Expr:
        condition = self._parse_binary(0)
        if self._accept_punct("?"):
            if_true = self.parse_assignment()
            self._expect_punct(":")
            if_false = self.parse_assignment()
            return ast.Ternary(condition, if_true, if_false)
        return condition

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """A binary expression whose operators all bind at ``min_level`` of
        ``_BINARY_LEVELS`` or tighter."""
        left = self._parse_unary()
        while True:
            level = _BINARY_PRECEDENCE.get(self.tokens[self.pos].text)
            if level is None or level < min_level:
                return left
            op = self._advance().text
            left = ast.BinaryOp(op, left, self._parse_binary(level + 1))

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in ("-", "+", "!", "~"):
            op = self._advance().text
            operand = self._parse_unary()
            return ast.UnaryOp(op, operand)
        if tok.kind is TokenKind.PUNCT and tok.text in ("++", "--"):
            op = self._advance().text
            operand = self._parse_unary()
            return ast.UnaryOp(op, operand)
        # C-style cast: "(" type ")" unary
        if tok.is_punct("(") and self._is_cast_ahead():
            self._advance()
            address_space, is_const = self._parse_qualifiers()
            target = self._parse_scalar_type()
            cast_type: Type = target
            if self._accept_punct("*"):
                cast_type = PointerType(target, address_space, is_const)
            self._expect_punct(")")
            return ast.Cast(cast_type, self._parse_unary())
        return self._parse_postfix()

    def _is_cast_ahead(self) -> bool:
        nxt = self._peek(1)
        return nxt.kind is TokenKind.KEYWORD and (
            is_type_name(nxt.text) or nxt.text in _QUALIFIER_KEYWORDS
        )

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._accept_punct("["):
                index = self.parse_expression()
                self._expect_punct("]")
                expr = ast.Index(expr, index)
            elif self._check_punct("(") and isinstance(expr, ast.Identifier):
                self._advance()
                args: list[ast.Expr] = []
                if not self._check_punct(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                expr = ast.Call(expr.name, args)
            elif self._peek().kind is TokenKind.PUNCT and self._peek().text in ("++", "--"):
                op = self._advance().text
                expr = ast.UnaryOp(op, expr, postfix=True)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT_LITERAL:
            self._advance()
            return ast.IntLiteral(tok.int_value)
        if tok.kind is TokenKind.FLOAT_LITERAL:
            self._advance()
            return ast.FloatLiteral(tok.float_value)
        if tok.is_keyword("true"):
            self._advance()
            return ast.BoolLiteral(True)
        if tok.is_keyword("false"):
            self._advance()
            return ast.BoolLiteral(False)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            return ast.Identifier(tok.text)
        if tok.is_punct("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r} at {tok.location}")


def _const_int(expr: ast.Expr) -> int:
    """Evaluate a constant integer expression used in an array declarator."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.BinaryOp):
        left = _const_int(expr.left)
        right = _const_int(expr.right)
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a // b,
            "%": lambda a, b: a % b,
        }
        if expr.op in ops:
            return ops[expr.op](left, right)
    raise ParseError("array sizes must be constant integer expressions")


def parse_program(source: str) -> ast.Program:
    """Parse kernel source text into a :class:`Program`."""
    try:
        return Parser(tokenize(source)).parse_program()
    except RecursionError:
        raise ParseError("kernel source nests too deeply") from None


def parse_kernel(source: str, name: str | None = None) -> ast.FunctionDef:
    """Parse kernel source and return the (single or named) kernel function."""
    return parse_program(source).kernel(name)
