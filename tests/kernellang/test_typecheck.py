"""Tests for the semantic analyser."""

import pytest

from repro.apps import all_applications
from repro.core.config import ACCURATE_CONFIG, default_configurations
from repro.core.perforator import KernelPerforator
from repro.kernellang import SymbolError, TypeError_, ast, check_program, parse_program
from repro.kernellang.symbols import Scope, Symbol, SymbolTable
from repro.kernellang.types import BOOL, FLOAT, INT


pytestmark = pytest.mark.slow


def check(source):
    return check_program(parse_program(source))


VALID = """
__kernel void k(__global const float* input, __global float* output, int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    float value = input[y * width + x];
    output[y * width + x] = value * 2.0f;
}
"""


class TestValidPrograms:
    def test_valid_kernel_passes(self):
        result = check(VALID)
        assert result.kernel_names == ["k"]

    def test_helper_function_call(self):
        source = """
        float twice(float v) { return v * 2.0f; }
        __kernel void k(__global float* o, int width, int height) {
            o[get_global_id(0)] = twice(1.5f);
        }
        """
        assert check(source).kernel_names == ["k"]

    def test_builtin_constants_usable(self):
        source = """
        __kernel void k(__global float* o, int width, int height) {
            barrier(CLK_LOCAL_MEM_FENCE);
            o[0] = 1.0f;
        }
        """
        check(source)

    def test_local_array_indexing(self):
        source = """
        __kernel void k(__global float* o, int width, int height) {
            __local float tile[32];
            tile[get_local_id(0)] = 1.0f;
            o[get_global_id(0)] = tile[get_local_id(0)];
        }
        """
        check(source)


def expr_type(expr: str, helpers: str = ""):
    """The C type the checker records for ``expr`` (``i`` is an int and
    ``f`` a float, ``p`` a predicate)."""
    program = parse_program(f"""
    {helpers}
    __kernel void k(__global float* o, int i, float f) {{
        int p = i < 2;
        o[0] = {expr};
    }}
    """)
    check_program(program)
    store = program.kernel().body.statements[-1].expr
    return store.value.ctype


class TestExpressionTypes:
    """The checker records C's type on every expression; both backends
    follow it."""

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("min(i, 2)", INT),
            ("max(i, f)", FLOAT),
            ("clamp(i, 0, 3)", INT),
            ("clamp(i, 0.5f, 3)", FLOAT),
            ("abs(i)", INT),
            ("abs(f)", FLOAT),
            ("mad(i, i, 1)", INT),
            ("mix(f, f, 0.5f)", FLOAT),
            ("select(i, 2, p)", INT),
            ("select(i, f, p)", FLOAT),
            ("select(1.5f, 2.5f, i)", FLOAT),
        ],
    )
    def test_generic_builtins_give_their_operands_common_type(self, expr, expected):
        assert expr_type(expr) == expected

    @pytest.mark.parametrize(
        "expr", ["floor(i)", "ceil(i)", "round(i)", "fmin(i, 2)", "fmax(i, 2)", "fabs(i)"]
    )
    def test_math_functions_are_float(self, expr):
        assert expr_type(expr) == FLOAT

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("p ? 1 : 2", INT),
            ("p ? 1 : 2.5f", FLOAT),
            ("p ? f : i", FLOAT),
            ("i / 2", INT),
            ("i / f", FLOAT),
            ("i + f", FLOAT),
            ("f < i", BOOL),
            ("f & 3", INT),
        ],
    )
    def test_ternary_and_operators_take_the_common_type(self, expr, expected):
        assert expr_type(expr) == expected

    def test_a_helper_call_has_its_declared_return_type(self):
        helpers = "float g(int a) { return a; } int h(float a) { return a; }"
        assert expr_type("g(1)", helpers) == FLOAT
        assert expr_type("h(1.5f)", helpers) == INT
        assert expr_type("h(1.5f) / 2", helpers) == INT

    def test_every_expression_is_annotated(self):
        program = parse_program(VALID)
        check_program(program)
        exprs = [node for node in program.walk() if isinstance(node, ast.Expr)]
        assert exprs and all(node.ctype is not None for node in exprs)
        assert program.checked

    @pytest.mark.parametrize(
        "app, config",
        [
            (app, config)
            for app in all_applications()
            for config in (ACCURATE_CONFIG, *default_configurations(app.halo))
        ],
        ids=lambda value: getattr(value, "name", None) or getattr(value, "label", None),
    )
    def test_every_bundled_perforated_program_type_checks(self, app, config):
        """The perforated tiles are indexed by int ``clamp`` results."""
        perforator = KernelPerforator(app.kernel_source())
        built = perforator.accurate() if config.is_accurate else perforator.perforate(config)
        check_program(built.program)


class TestErrors:
    def test_undefined_variable(self):
        source = """
        __kernel void k(__global float* o, int width, int height) { o[0] = missing; }
        """
        with pytest.raises(SymbolError):
            check(source)

    def test_undefined_function(self):
        source = """
        __kernel void k(__global float* o, int width, int height) { o[0] = mystery(1.0f); }
        """
        with pytest.raises(SymbolError):
            check(source)

    def test_wrong_builtin_arity(self):
        source = """
        __kernel void k(__global float* o, int width, int height) { o[0] = clamp(1.0f); }
        """
        with pytest.raises(TypeError_):
            check(source)

    def test_wrong_user_function_arity(self):
        source = """
        float add(float a, float b) { return a + b; }
        __kernel void k(__global float* o, int width, int height) { o[0] = add(1.0f); }
        """
        with pytest.raises(TypeError_):
            check(source)

    def test_redefinition_in_same_scope(self):
        source = """
        __kernel void k(__global float* o, int width, int height) {
            int a = 1;
            float a = 2.0f;
            o[0] = a;
        }
        """
        with pytest.raises(SymbolError):
            check(source)

    def test_shadowing_in_inner_scope_is_allowed(self):
        source = """
        __kernel void k(__global float* o, int width, int height) {
            int a = 1;
            for (int i = 0; i < 2; i++) { int a = 2; o[a] = 0.0f; }
            o[a] = 1.0f;
        }
        """
        check(source)

    def test_kernel_must_return_void(self):
        source = """
        __kernel int k(__global float* o, int width, int height) { return 1; }
        """
        with pytest.raises(TypeError_):
            check(source)

    def test_assignment_to_rvalue(self):
        source = """
        __kernel void k(__global float* o, int width, int height) { (1 + 2) = 3; }
        """
        with pytest.raises(TypeError_):
            check(source)

    def test_indexing_scalar(self):
        source = """
        __kernel void k(__global float* o, int width, int height) {
            float v = 1.0f;
            o[0] = v[1];
        }
        """
        with pytest.raises(TypeError_):
            check(source)

    def test_float_index_rejected(self):
        source = """
        __kernel void k(__global float* o, int width, int height) { o[1.5f] = 0.0f; }
        """
        with pytest.raises(TypeError_):
            check(source)

    def test_void_function_returning_value(self):
        source = """
        __kernel void k(__global float* o, int width, int height) { return 5; }
        """
        with pytest.raises(TypeError_):
            check(source)


class TestSymbolTable:
    def test_define_and_lookup(self):
        table = SymbolTable()
        table.define(Symbol("a", INT))
        assert table.lookup("a").sym_type is INT

    def test_nested_scope_lookup(self):
        table = SymbolTable()
        table.define(Symbol("a", INT))
        table.push("inner")
        table.define(Symbol("b", FLOAT))
        assert table.lookup("a").sym_type is INT
        assert table.lookup("b").sym_type is FLOAT
        table.pop()
        with pytest.raises(SymbolError):
            table.lookup("b")

    def test_duplicate_definition_rejected(self):
        scope = Scope()
        scope.define(Symbol("x", INT))
        with pytest.raises(SymbolError):
            scope.define(Symbol("x", FLOAT))

    def test_cannot_pop_global_scope(self):
        table = SymbolTable()
        with pytest.raises(SymbolError):
            table.pop()

    def test_is_defined_helpers(self):
        table = SymbolTable()
        table.define(Symbol("a", INT))
        table.push()
        assert table.is_defined("a")
        assert not table.current.is_defined_locally("a")
        assert table.depth() == 2
