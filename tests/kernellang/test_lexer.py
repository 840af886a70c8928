"""Tests for the lexer."""

import numpy as np
import pytest

from repro.clsim import Buffer, Executor, NDRange
from repro.kernellang import LexError, compile_kernel, tokenize
from repro.kernellang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_source_gives_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        tokens = tokenize("__kernel void foo(int bar)")
        assert [t.kind for t in tokens[:2]] == [TokenKind.KEYWORD, TokenKind.KEYWORD]
        assert tokens[2].kind is TokenKind.IDENT
        assert tokens[2].text == "foo"

    def test_punctuators_longest_match(self):
        assert texts("a <<= b >> c != d") == ["a", "<<=", "b", ">>", "c", "!=", "d"]
        assert texts("i++ + ++j") == ["i", "++", "+", "++", "j"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("int a;\nfloat b;")
        float_token = [t for t in tokens if t.text == "float"][0]
        assert float_token.location.line == 2
        assert float_token.location.column == 1

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("int a = `b`;")


class TestNumbers:
    def test_integer_literals(self):
        tokens = tokenize("0 42 0x1F 7u 100L")
        assert all(t.kind is TokenKind.INT_LITERAL for t in tokens[:-1])
        assert tokens[2].int_value == 31

    def test_float_literals(self):
        tokens = tokenize("1.0 2.5f .5f 1e3 2.0e-2f 3.f")
        assert all(t.kind is TokenKind.FLOAT_LITERAL for t in tokens[:-1])
        assert tokens[1].float_value == pytest.approx(2.5)
        assert tokens[3].float_value == pytest.approx(1000.0)
        assert tokens[4].float_value == pytest.approx(0.02)

    def test_float_vs_member_access(self):
        # "1.0f" is one token; "a.b" stays three tokens.
        assert texts("a . b") == ["a", ".", "b"]


class TestIntegerLiteralRules:
    """Integer literals follow C: a leading ``0`` makes an octal literal,
    and hexadecimal ones take the integer suffixes too."""

    def test_leading_zero_is_octal(self):
        (token,) = tokenize("012")[:-1]
        assert token.kind is TokenKind.INT_LITERAL
        assert token.int_value == 10
        assert [t.int_value for t in tokenize("0 00 0u 0777L")[:-1]] == [0, 0, 0, 511]

    def test_decimal_digit_in_an_octal_literal_is_an_error(self):
        for source in ("08", "x = 019;", "09u"):
            with pytest.raises(LexError, match="invalid digit in octal literal"):
                tokenize(source)

    def test_hex_literal_takes_integer_suffixes(self):
        tokens = tokenize("0x1Fu 0XffUL")[:-1]
        assert [t.text for t in tokens] == ["0x1Fu", "0XffUL"]
        assert [t.int_value for t in tokens] == [31, 255]

    def test_hex_prefix_without_digits_is_an_error(self):
        for source in ("0x", "0X;", "0xg", "a = 0xu;"):
            with pytest.raises(LexError, match="without digits"):
                tokenize(source)

    def test_leading_zero_floats_stay_floats(self):
        tokens = tokenize("09.5 08e1 00.5f")[:-1]
        assert all(t.kind is TokenKind.FLOAT_LITERAL for t in tokens)
        assert [t.float_value for t in tokens] == [9.5, 80.0, 0.5]

    def test_integer_suffix_on_a_float_is_an_error(self):
        for source in ("1.5u", "1e3L", "2.ul"):
            with pytest.raises(LexError, match="integer suffix on float literal"):
                tokenize(source)

    def test_interpreter_stores_octal_012_as_10(self):
        kernel = compile_kernel(
            "__kernel void k(__global float* output) {"
            " int v = 012; output[get_global_id(0)] = v; }"
        )
        output = Buffer(np.zeros(4), "output")
        Executor().run(kernel, NDRange((4,), (4,)), {"output": output})
        assert output.array.tolist() == [10.0] * 4


class TestAscii:
    """Kernel source is ASCII: a non-ASCII character outside a comment is
    unexpected, wherever a letter or digit would be accepted."""

    @pytest.mark.parametrize("source", ["int \u00e9;", "x = \uff12;", "y = 2\u00b2;"])
    def test_non_ascii_outside_comments_is_unexpected(self, source):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(source)

    def test_non_ascii_inside_comments_is_skipped(self):
        source = "int a; // \u00e9\u00b2\n/* \uff12 */ int b;\n#define \u00e9 1\nint c;"
        assert texts(source) == ["int", "a", ";", "int", "b", ";", "int", "c", ";"]


class TestComments:
    def test_line_comments_skipped(self):
        assert texts("int a; // comment here\nint b;") == ["int", "a", ";", "int", "b", ";"]

    def test_block_comments_skipped(self):
        assert texts("int /* hi \n there */ a;") == ["int", "a", ";"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("int a; /* never closed")

    def test_preprocessor_lines_skipped(self):
        source = "#define FOO 1\nint a;"
        assert texts(source) == ["int", "a", ";"]

    def test_continued_preprocessor_line_skipped(self):
        tokens = tokenize("#define F(x) \\\n    (x)\nint a;")
        assert [t.text for t in tokens[:-1]] == ["int", "a", ";"]
        assert tokens[0].location.line == 3

    def test_hash_past_the_first_column_is_unexpected(self):
        with pytest.raises(LexError, match="unexpected character '#' at 1:3"):
            tokenize("  #define FOO 1")

    def test_locations_count_lines_inside_comments(self):
        tokens = tokenize("/* one\ntwo */ a // three\n  b")
        assert [(t.text, t.location.line, t.location.column) for t in tokens] == [
            ("a", 2, 8),
            ("b", 3, 3),
            ("", 3, 4),
        ]

    def test_unterminated_block_comment_names_its_start(self):
        with pytest.raises(LexError, match="unterminated block comment starting at 2:15"):
            tokenize("int a;\n  /* never */ /* closed")


class TestTokenHelpers:
    def test_is_punct_and_is_keyword(self):
        tokens = tokenize("if (x) { }")
        assert tokens[0].is_keyword("if")
        assert tokens[1].is_punct("(")
        assert not tokens[1].is_punct(")")
