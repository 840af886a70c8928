"""``repro.kernellang`` — a small OpenCL C kernel language and compiler.

The package provides the front end (lexer, parser, type checker), an AST
interpreter that executes kernels on the :mod:`repro.clsim` simulator, a
code generator that emits OpenCL C (:mod:`~repro.kernellang.clgen`),
static analyses (stencil access patterns, data reuse) and the compiler
passes that implement the paper's
transformation: local-memory prefetch, perforation and reconstruction.

The compiled execution backend (:mod:`~repro.kernellang.codegen`) prints
kernels into specialized NumPy source through one typed lowering core: the
kernel IR (:mod:`~repro.kernellang.ir`) and the pass pipeline
(:mod:`~repro.kernellang.passes` — uniformity analysis, mask insertion,
memory views, batching transform).  See ``docs/ir.md`` for the pass
contracts.
"""

from . import ast, ir, passes
from .builtins import get_builtin, is_builtin
from .clgen import CodeGenerator, generate
from .codegen import CodegenKernel, LoweringError, codegen_kernel, lower_kernel
from .errors import (
    AnalysisError,
    InterpreterError,
    KernelLangError,
    LexError,
    ParseError,
    SymbolError,
    TransformError,
    TypeError_,
)
from .interpreter import KernelInterpreter, compile_kernel
from .lexer import tokenize
from .parser import Parser, parse_kernel, parse_program
from .typecheck import CheckResult, TypeChecker, check_program
from .types import (
    AddressSpace,
    ArrayType,
    FLOAT,
    INT,
    PointerType,
    ScalarType,
    Type,
    VOID,
)

__all__ = [
    "AddressSpace",
    "AnalysisError",
    "ArrayType",
    "CheckResult",
    "CodeGenerator",
    "CodegenKernel",
    "LoweringError",
    "codegen_kernel",
    "lower_kernel",
    "FLOAT",
    "INT",
    "InterpreterError",
    "KernelInterpreter",
    "KernelLangError",
    "LexError",
    "ParseError",
    "Parser",
    "PointerType",
    "ScalarType",
    "SymbolError",
    "TransformError",
    "Type",
    "TypeChecker",
    "TypeError_",
    "VOID",
    "ast",
    "ir",
    "passes",
    "check_program",
    "compile_kernel",
    "generate",
    "get_builtin",
    "is_builtin",
    "parse_kernel",
    "parse_program",
    "tokenize",
]
