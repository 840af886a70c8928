"""Abstract syntax tree for the OpenCL C subset.

Nodes are plain dataclasses.  Two traversal helpers are provided:

* :class:`NodeVisitor` — read-only traversal (analyses);
* :class:`NodeTransformer` — rebuild-the-tree traversal (compiler passes).

The tree deliberately stays close to the concrete syntax so that
:mod:`repro.kernellang.clgen` can emit readable OpenCL C from transformed
kernels (the artefact a user would take to a real GPU).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

from .types import Type


@dataclass
class Node:
    """Base class of all AST nodes."""

    def children(self) -> Iterator["Node"]:
        """Yield child nodes (used by generic traversals)."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def clone(self) -> "Node":
        """Copy of the subtree: nodes and their lists and tuples are copied,
        the rest (types, strings, numbers, ``ctype``) is immutable and
        shared.  A node reachable twice would become two; no tree has one."""
        twin = object.__new__(type(self))
        state = twin.__dict__
        for name, value in self.__dict__.items():
            if isinstance(value, Node):
                value = value.clone()
            elif type(value) is list:
                value = [item.clone() if isinstance(item, Node) else item for item in value]
            elif type(value) is tuple:
                value = tuple(item.clone() if isinstance(item, Node) else item for item in value)
            state[name] = value
        return twin

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the subtree, including ``self``."""
        yield self
        for child in self.children():
            yield from child.walk()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
@dataclass
class Expr(Node):
    """Base class of expressions.

    ``ctype`` is the expression's C type, which the type checker records
    (:mod:`repro.kernellang.typecheck`); ``None`` until it has run.  It is
    not a field: equality and traversals ignore it.
    """

    ctype = None


@dataclass
class IntLiteral(Expr):
    value: int


@dataclass
class FloatLiteral(Expr):
    value: float


@dataclass
class BoolLiteral(Expr):
    value: bool


@dataclass
class Identifier(Expr):
    name: str


@dataclass
class UnaryOp(Expr):
    """Prefix (``-x``, ``!x``, ``++i``) or postfix (``i++``) operator."""

    op: str
    operand: Expr
    postfix: bool = False


@dataclass
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Assignment(Expr):
    """``target = value`` or a compound assignment such as ``+=``."""

    op: str
    target: Expr
    value: Expr


@dataclass
class Ternary(Expr):
    condition: Expr
    if_true: Expr
    if_false: Expr


@dataclass
class Call(Expr):
    name: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    """Array / pointer subscript ``base[index]``."""

    base: Expr
    index: Expr


@dataclass
class Cast(Expr):
    target_type: Type
    expr: Expr


@dataclass
class InitList(Expr):
    """Brace-enclosed initializer list (``{1, 2, 3}``)."""

    values: list[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------
@dataclass
class Stmt(Node):
    """Base class of statements."""


@dataclass
class VarDecl(Node):
    """A single declarator within a declaration statement."""

    name: str
    var_type: Type
    address_space: str = "private"
    is_const: bool = False
    array_size: Optional[Expr] = None
    init: Optional[Expr] = None


@dataclass
class DeclStmt(Stmt):
    declarations: list[VarDecl] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Block(Stmt):
    statements: list[Stmt] = field(default_factory=list)


@dataclass
class IfStmt(Stmt):
    condition: Expr
    then_body: Block
    else_body: Optional[Block] = None


@dataclass
class ForStmt(Stmt):
    init: Optional[Stmt]
    condition: Optional[Expr]
    step: Optional[Expr]
    body: Block


@dataclass
class WhileStmt(Stmt):
    condition: Expr
    body: Block


@dataclass
class DoWhileStmt(Stmt):
    body: Block
    condition: Expr


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------
@dataclass
class Param(Node):
    """A kernel/function parameter."""

    name: str
    param_type: Type


@dataclass
class FunctionDef(Node):
    """A function definition; ``is_kernel`` marks ``__kernel`` entry points."""

    name: str
    return_type: Type
    params: list[Param] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    is_kernel: bool = False


@dataclass
class Program(Node):
    """A translation unit: file-scope declarations plus functions."""

    globals: list[DeclStmt] = field(default_factory=list)
    functions: list[FunctionDef] = field(default_factory=list)

    #: Whether the type checker annotated this program (not a field).
    checked = False

    def kernel(self, name: str | None = None) -> FunctionDef:
        """Return the kernel named ``name`` (or the only kernel)."""
        kernels = [f for f in self.functions if f.is_kernel]
        if name is None:
            if len(kernels) != 1:
                raise ValueError(
                    f"expected exactly one kernel, found {[k.name for k in kernels]}"
                )
            return kernels[0]
        for k in kernels:
            if k.name == name:
                return k
        raise ValueError(f"no kernel named {name!r}; available: {[k.name for k in kernels]}")


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------
class NodeVisitor:
    """Read-only AST traversal with ``visit_<ClassName>`` dispatch."""

    def visit(self, node: Node):
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node):
        for child in node.children():
            self.visit(child)
        return None


class NodeTransformer:
    """Rebuilding AST traversal.

    ``visit_<ClassName>`` methods may return a replacement node (or a list
    of statements when replacing a statement); returning ``None`` from a
    statement visitor removes the statement.  The default behaviour rebuilds
    children in place.
    """

    def visit(self, node: Node):
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node):
        for f in fields(node):
            value = getattr(node, f.name)
            if isinstance(value, Node):
                setattr(node, f.name, self.visit(value))
            elif isinstance(value, list):
                new_items = []
                for item in value:
                    if isinstance(item, Node):
                        result = self.visit(item)
                        if result is None:
                            continue
                        if isinstance(result, list):
                            new_items.extend(result)
                        else:
                            new_items.append(result)
                    else:
                        new_items.append(item)
                setattr(node, f.name, new_items)
        return node
