"""Token definitions for the OpenCL C subset.

The kernel language is a small but realistic subset of OpenCL C: enough to
express the stencil/map kernels evaluated in the paper (Gaussian, Sobel,
Median, Hotspot, Inversion) and the code the perforation passes generate
(local-memory prefetch loops, barriers, reconstruction arithmetic).
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenKind(enum.Enum):
    """Lexical categories."""

    IDENT = "identifier"
    KEYWORD = "keyword"
    INT_LITERAL = "int-literal"
    FLOAT_LITERAL = "float-literal"
    PUNCT = "punctuation"
    EOF = "eof"


#: Reserved words of the subset (type names, qualifiers, statements,
#: OpenCL address-space qualifiers).
KEYWORDS = frozenset(
    {
        "void",
        "int",
        "uint",
        "long",
        "float",
        "double",
        "bool",
        "char",
        "uchar",
        "short",
        "ushort",
        "size_t",
        "const",
        "if",
        "else",
        "for",
        "while",
        "do",
        "return",
        "break",
        "continue",
        "true",
        "false",
        "__kernel",
        "kernel",
        "__global",
        "global",
        "__local",
        "local",
        "__constant",
        "constant",
        "__private",
        "private",
        "restrict",
        "volatile",
        "struct",
    }
)

#: Multi-character punctuators, longest first so the lexer can use greedy
#: matching.
PUNCTUATORS = (
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "<<",
    ">>",
    "->",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    "?",
    ":",
    "=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "!",
    "&",
    "|",
    "^",
    "~",
    ".",
)


class SourceLocation(NamedTuple):
    """Line/column position of a token in the kernel source."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Token(NamedTuple):
    """A single lexical token (a named tuple: cheap to build)."""

    kind: TokenKind
    text: str
    location: SourceLocation

    @property
    def int_value(self) -> int:
        """Integer value of an INT_LITERAL token in its base (``0x`` hex, a
        leading ``0`` octal, else decimal), ignoring ``u``/``l`` suffixes."""
        text = self.text.rstrip("uUlL")
        if text[:2] in ("0x", "0X"):
            return int(text, 16)
        return int(text, 8 if text[0] == "0" else 10)

    @property
    def float_value(self) -> float:
        """Float value of a FLOAT_LITERAL token (strips the ``f`` suffix)."""
        text = self.text
        if text.endswith(("f", "F")):
            text = text[:-1]
        return float(text)

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}:{self.text!r}@{self.location}"
