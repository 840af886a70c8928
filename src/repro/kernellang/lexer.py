"""Lexer for the OpenCL C subset: one compiled regular expression.

Kernel source is ASCII.  Whitespace, ``//`` and ``/* */`` comments and
``#`` lines (from the first column, ``\\``-continued lines included; the
applications use no macros) are skipped.  Integer literals follow C:
decimal, octal (a leading ``0``) or hexadecimal, with any ``u``/``l``
suffixes; floats have a fraction, an exponent or an ``f`` suffix.  A
malformed literal (``08``, a bare ``0x``, ``1.5u``), an unterminated block
comment or any other character (non-ASCII ones included) is an error.
"""

from __future__ import annotations

import re

from .errors import LexError
from .tokens import KEYWORDS, PUNCTUATORS, SourceLocation, Token, TokenKind

_EXPONENT = r"[eE][+-]?[0-9]+"
#: A float without its suffix: a fraction, an exponent, or both.
_FLOAT_BODY = rf"(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:{_EXPONENT})?|[0-9]+{_EXPONENT}"

#: Every lexeme as a named alternative, tried in this order at each
#: position: identifiers, the most common, first; a comment before the
#: ``/`` it starts with, a float before the integer or ``.`` it starts
#: with, and each punctuator before its prefixes.
_LEXEMES = (
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("comment", r"//[^\n]*|/\*(?s:.*?)\*/"),
    ("open_comment", r"/\*"),
    ("directive", r"(?<![^\n])#(?:\\\n|[^\n])*"),
    ("bare_hex", r"0[xX](?![0-9a-fA-F])"),
    ("hex", r"0[xX][0-9a-fA-F]+[uUlL]*"),
    ("suffixed_float", rf"(?:{_FLOAT_BODY})[uUlL]"),
    ("float", rf"(?:{_FLOAT_BODY})[fF]?|[0-9]+[fF]"),
    ("bad_octal", r"0[0-7]*[89][0-9]*[uUlL]*"),
    ("int", r"[0-9]+[uUlL]*"),
    ("punct", "|".join(re.escape(p) for p in PUNCTUATORS)),
)

_WHITESPACE = " \t\r\n"

_ALTERNATIVES = "|".join(f"(?P<{name}>{pattern})" for name, pattern in _LEXEMES)

#: One lexeme and the whitespace before it.
_LEXEME = re.compile(f"[{_WHITESPACE}]*(?:{_ALTERNATIVES})")

_KINDS = {
    "hex": TokenKind.INT_LITERAL,
    "float": TokenKind.FLOAT_LITERAL,
    "int": TokenKind.INT_LITERAL,
    "ident": TokenKind.IDENT,
    "punct": TokenKind.PUNCT,
}

_ERRORS = {
    "open_comment": "unterminated block comment starting at {location}",
    "bare_hex": "hexadecimal literal {text!r} without digits at {location}",
    "suffixed_float": "integer suffix on float literal {text!r} at {location}",
    "bad_octal": "invalid digit in octal literal {text!r} at {location}",
}


def _location(source: str, index: int) -> SourceLocation:
    """The line and column of ``source[index]``."""
    line_start = source.rfind("\n", 0, index) + 1
    return SourceLocation(source.count("\n", 0, index) + 1, index - line_start + 1)


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into a token list terminated by an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    # ``line`` is the line of offset ``counted``; ``line_start`` its first offset.
    line, line_start, counted, pos = 1, 0, 0, 0
    for match in _LEXEME.finditer(source):
        if match.start() != pos:
            break  # finditer skipped a character no lexeme starts with
        group = match.lastgroup
        start, pos = match.span(group)
        kind = _KINDS.get(group)
        if kind is None:
            if group in _ERRORS:
                text, location = match.group(group), _location(source, start)
                raise LexError(_ERRORS[group].format(text=text, location=location))
            continue  # a comment or a directive
        newlines = source.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", counted, start) + 1
        counted = start
        text = match.group(group)
        if kind is TokenKind.IDENT and text in KEYWORDS:
            kind = TokenKind.KEYWORD
        append(Token(kind, text, SourceLocation(line, start - line_start + 1)))
    end = len(source) - len(source[pos:].lstrip(_WHITESPACE))
    if end != len(source):
        raise LexError(f"unexpected character {source[end]!r} at {_location(source, end)}")
    append(Token(TokenKind.EOF, "", _location(source, end)))
    return tokens
