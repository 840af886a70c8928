"""Property-based fuzzing of the kernellang lexer and parser.

The seed's lexer hung forever on integer-suffix literals at end-of-input
(``tokenize("7u")``): ``peek()`` returns ``""`` at EOF and ``"" in "uUlL"``
is ``True``.  These tests catch that whole *class* of regression by
construction: every lexer/parser invocation runs under a hard wall-clock
timeout, and random text and token streams assert the front end either
succeeds or raises a :class:`KernelLangError` — never hangs, never leaks a
foreign exception (a literal's value or a deep nesting included).
"""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.kernellang.errors import KernelLangError, ParseError
from repro.kernellang.lexer import tokenize
from repro.kernellang.parser import parse_program

#: Wall-clock budget for a single lexer/parser invocation.  Generous: real
#: runs take microseconds; only an infinite loop can exhaust it.
TIMEOUT_SECONDS = 5.0


@contextmanager
def deadline(seconds: float = TIMEOUT_SECONDS):
    """Fail the test (instead of hanging CI) if the block does not finish."""

    def _alarm(signum, frame):
        raise TimeoutError(f"lexer/parser did not finish within {seconds}s")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def lex(source: str):
    with deadline():
        return tokenize(source)


def parse(source: str):
    with deadline():
        return parse_program(source)


#: Integer-literal suffixes OpenCL C allows (including the empty one).
SUFFIXES = st.sampled_from(
    ["", "u", "U", "l", "L", "ul", "uL", "Ul", "UL", "lu", "LU", "ll", "ull"]
)


class TestLexerFuzz:
    @given(value=st.integers(min_value=0, max_value=2**63 - 1), suffix=SUFFIXES)
    @settings(max_examples=200, deadline=None)
    def test_integer_suffix_literal_at_eof_terminates(self, value, suffix):
        """The regression class of the seed hang: a suffixed literal as the
        very last characters of the input (no trailing whitespace)."""
        tokens = lex(f"{value}{suffix}")
        assert tokens[0].text == f"{value}{suffix}"

    @given(value=st.integers(min_value=0, max_value=10**6), suffix=SUFFIXES)
    @settings(max_examples=100, deadline=None)
    def test_suffix_literal_inside_expressions(self, value, suffix):
        tokens = lex(f"int x = {value}{suffix};")
        assert any(token.text == f"{value}{suffix}" for token in tokens)

    @given(source=st.text(max_size=120))
    @example("int x = 2\u00b2;")  # once an int literal with no value
    @example("int x = 08;")
    @example("int x = 0x;")
    @example("float f = 1.5u;")
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_terminates_or_raises_lex_error(self, source):
        """Any input either tokenizes and parses or raises a KernelLangError
        quickly."""
        for front_end in (lex, parse):
            try:
                front_end(source)
            except KernelLangError:
                pass

    @given(
        chunks=st.lists(
            st.sampled_from(
                [
                    "7u", "0", "1e", "1e+", "0x", ".", "..", "...",
                    "float", "int", "__kernel", "__local", "barrier",
                    "identifier", "_", "+", "-", "*", "/", "%", "<<", ">>",
                    "&&", "||", "<=", ">=", "==", "!=", "(", ")", "{", "}",
                    "[", "]", ";", ",", "?", ":", "1.5f", "2.0", "'",
                ]
            ),
            max_size=25,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_random_token_streams_terminate(self, chunks):
        """Token soup, joined without whitespace: EOF can fall anywhere
        inside a token, which is exactly where the seed bug lived."""
        for front_end in (lex, parse):
            try:
                front_end("".join(chunks))
            except KernelLangError:
                pass

    def test_seed_hang_examples(self):
        """The literal reproducer of the seed bug and its close cousins."""
        for source in ("7u", "7U", "7l", "7L", "7ul", "123u", "0u", "7u ", "x=7u"):
            lex(source)


class TestParserFuzz:
    @given(
        tokens=st.lists(
            st.sampled_from(
                [
                    "__kernel", "void", "float", "int", "f", "x", "(", ")",
                    "{", "}", ";", ",", "=", "+", "1", "2.0f", "7u",
                    "return", "if", "for", "while", "[", "]", "*",
                ]
            ),
            max_size=30,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_random_token_streams_parse_or_raise(self, tokens):
        try:
            parse(" ".join(tokens))
        except KernelLangError:
            pass

    @given(suffix=SUFFIXES)
    @settings(max_examples=20, deadline=None)
    def test_kernel_with_suffixed_literals_parses(self, suffix):
        program = parse(
            f"""
            __kernel void k(__global float* output, int width, int height) {{
                int x = get_global_id(0);
                int y = get_global_id(1);
                output[y * width + x] = 2.0f * {7}{suffix};
            }}
            """
        )
        assert program.kernel("k").name == "k"

    def test_deep_nesting_raises_parse_error(self):
        """Nesting past the interpreter's recursion limit is a ParseError,
        not a RecursionError."""
        for opener in ("(", "-(", "a["):
            with pytest.raises(ParseError, match="nests too deeply"):
                parse("int x = " + opener * 5000 + "1;")

    def test_truncated_kernel_sources_raise_cleanly(self):
        """Every prefix of a valid kernel either parses or raises ParseError
        (EOF mid-construct must not hang or crash differently)."""
        source = (
            "__kernel void k(__global float* o, int w, int h) "
            "{ int x = get_global_id(0); o[x] = 1.0f; }"
        )
        for cut in range(len(source)):
            try:
                parse(source[:cut])
            except KernelLangError:
                pass
