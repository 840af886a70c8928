"""Tests for the parser."""

import pytest

from repro.kernellang import ParseError, ast, parse_kernel, parse_program
from repro.kernellang.types import PointerType, ScalarType


GAUSSIAN_LIKE = """
__constant float coeff[4] = {1.0f, 2.0f, 3.0f, 4.0f};

__kernel void blur(__global const float* input, __global float* output, int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    float sum = 0.0f;
    for (int dx = -1; dx <= 1; dx++) {
        sum += input[y * width + clamp(x + dx, 0, width - 1)] * coeff[dx + 1];
    }
    output[y * width + x] = sum;
}
"""


class TestTopLevel:
    def test_kernel_and_constant_parsed(self):
        program = parse_program(GAUSSIAN_LIKE)
        assert len(program.globals) == 1
        assert len(program.functions) == 1
        kernel = program.kernel()
        assert kernel.name == "blur"
        assert kernel.is_kernel

    def test_kernel_lookup_by_name(self):
        program = parse_program(GAUSSIAN_LIKE)
        assert program.kernel("blur").name == "blur"
        with pytest.raises(ValueError):
            program.kernel("missing")

    def test_multiple_kernels_require_name(self):
        source = """
        __kernel void a(__global float* o, int width, int height) { o[0] = 1.0f; }
        __kernel void b(__global float* o, int width, int height) { o[0] = 2.0f; }
        """
        program = parse_program(source)
        with pytest.raises(ValueError):
            program.kernel()
        assert program.kernel("b").name == "b"

    def test_helper_function_not_marked_kernel(self):
        source = """
        float square(float v) { return v * v; }
        __kernel void k(__global float* o, int width, int height) { o[0] = square(2.0f); }
        """
        program = parse_program(source)
        assert [f.is_kernel for f in program.functions] == [False, True]

    def test_parameter_types(self):
        kernel = parse_kernel(GAUSSIAN_LIKE)
        input_param, output_param, width_param = kernel.params[0], kernel.params[1], kernel.params[2]
        assert isinstance(input_param.param_type, PointerType)
        assert input_param.param_type.address_space == "global"
        assert input_param.param_type.is_const
        assert isinstance(output_param.param_type, PointerType)
        assert not output_param.param_type.is_const
        assert isinstance(width_param.param_type, ScalarType)

    def test_constant_array_declaration(self):
        program = parse_program(GAUSSIAN_LIKE)
        decl = program.globals[0].declarations[0]
        assert decl.name == "coeff"
        assert decl.address_space == "constant"
        assert isinstance(decl.init, ast.InitList)
        assert len(decl.init.values) == 4


class TestStatements:
    def test_for_loop_structure(self):
        kernel = parse_kernel(GAUSSIAN_LIKE)
        loops = [n for n in kernel.walk() if isinstance(n, ast.ForStmt)]
        assert len(loops) == 1
        loop = loops[0]
        assert isinstance(loop.init, ast.DeclStmt)
        assert isinstance(loop.condition, ast.BinaryOp)
        assert isinstance(loop.step, ast.UnaryOp)

    def test_if_else(self):
        source = """
        __kernel void k(__global float* o, int width, int height) {
            int x = get_global_id(0);
            if (x > 1) { o[x] = 1.0f; } else o[x] = 2.0f;
        }
        """
        kernel = parse_kernel(source)
        branches = [n for n in kernel.walk() if isinstance(n, ast.IfStmt)]
        assert len(branches) == 1
        assert branches[0].else_body is not None

    def test_while_and_do_while(self):
        source = """
        __kernel void k(__global float* o, int width, int height) {
            int i = 0;
            while (i < 4) { i++; }
            do { i--; } while (i > 0);
            o[0] = (float)(i);
        }
        """
        kernel = parse_kernel(source)
        assert len([n for n in kernel.walk() if isinstance(n, ast.WhileStmt)]) == 1
        assert len([n for n in kernel.walk() if isinstance(n, ast.DoWhileStmt)]) == 1

    def test_break_continue_return(self):
        source = """
        __kernel void k(__global float* o, int width, int height) {
            for (int i = 0; i < 8; i++) {
                if (i == 2) { continue; }
                if (i == 5) { break; }
            }
            return;
        }
        """
        kernel = parse_kernel(source)
        assert len([n for n in kernel.walk() if isinstance(n, ast.BreakStmt)]) == 1
        assert len([n for n in kernel.walk() if isinstance(n, ast.ContinueStmt)]) == 1
        assert len([n for n in kernel.walk() if isinstance(n, ast.ReturnStmt)]) == 1

    def test_local_array_declaration(self):
        source = """
        __kernel void k(__global float* o, int width, int height) {
            __local float tile[64];
            tile[get_local_id(0)] = 1.0f;
            barrier(CLK_LOCAL_MEM_FENCE);
            o[get_global_id(0)] = tile[0];
        }
        """
        kernel = parse_kernel(source)
        decls = [n for n in kernel.walk() if isinstance(n, ast.VarDecl) and n.name == "tile"]
        assert decls[0].address_space == "local"
        assert decls[0].array_size is not None

    def test_multiple_declarators(self):
        source = """
        __kernel void k(__global float* o, int width, int height) {
            int a = 1, b = 2;
            o[0] = (float)(a + b);
        }
        """
        kernel = parse_kernel(source)
        decl_stmt = kernel.body.statements[0]
        assert isinstance(decl_stmt, ast.DeclStmt)
        assert [d.name for d in decl_stmt.declarations] == ["a", "b"]


class TestExpressions:
    def parse_expr(self, text):
        source = f"__kernel void k(__global float* o, int width, int height) {{ o[0] = {text}; }}"
        kernel = parse_kernel(source)
        stmt = kernel.body.statements[0]
        return stmt.expr.value

    def test_precedence_multiplication_over_addition(self):
        expr = self.parse_expr("1.0f + 2.0f * 3.0f")
        assert isinstance(expr, ast.BinaryOp)
        assert expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp)
        assert expr.right.op == "*"

    def test_parentheses_override_precedence(self):
        expr = self.parse_expr("(1.0f + 2.0f) * 3.0f")
        assert expr.op == "*"
        assert isinstance(expr.left, ast.BinaryOp)

    def test_ternary(self):
        expr = self.parse_expr("x > 0 ? 1.0f : 2.0f")
        assert isinstance(expr, ast.Ternary)

    def test_unary_and_cast(self):
        expr = self.parse_expr("-(float)(3)")
        assert isinstance(expr, ast.UnaryOp)
        assert isinstance(expr.operand, ast.Cast)

    def test_call_with_multiple_args(self):
        expr = self.parse_expr("clamp(x, 0, width - 1)")
        assert isinstance(expr, ast.Call)
        assert len(expr.args) == 3

    def test_nested_indexing(self):
        expr = self.parse_expr("o[o[0]]")
        assert isinstance(expr, ast.Index)
        assert isinstance(expr.index, ast.Index)

    def test_compound_assignment(self):
        source = """
        __kernel void k(__global float* o, int width, int height) { o[0] += 2.0f; }
        """
        kernel = parse_kernel(source)
        expr = kernel.body.statements[0].expr
        assert isinstance(expr, ast.Assignment)
        assert expr.op == "+="

    def test_logical_operators(self):
        expr = self.parse_expr("x > 0 && y < 2 || z == 3")
        assert isinstance(expr, ast.BinaryOp)
        assert expr.op == "||"


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_program("__kernel void k(__global float* o) { o[0] = 1.0f }")

    def test_unbalanced_braces(self):
        with pytest.raises(ParseError):
            parse_program("__kernel void k(__global float* o) { o[0] = 1.0f;")

    def test_bad_parameter(self):
        with pytest.raises(ParseError):
            parse_program("__kernel void k(global float 3badname) { }")

    def test_non_constant_array_size_in_param(self):
        with pytest.raises(ParseError):
            parse_program("__kernel void k(float w[n]) { }")


class TestAstUtilities:
    def test_clone_is_deep(self):
        kernel = parse_kernel(GAUSSIAN_LIKE)
        clone = kernel.clone()
        clone.body.statements.clear()
        assert len(kernel.body.statements) > 0

    def test_clone_equals_the_original_and_shares_no_node(self):
        program = parse_program(GAUSSIAN_LIKE)
        clone = program.clone()
        assert clone == program
        assert not {id(n) for n in clone.walk()} & {id(n) for n in program.walk()}

    def test_no_node_is_reachable_twice(self):
        """``Node.clone`` copies structurally, so a node reachable twice
        would become two: every parsed and every perforated tree of the
        bundled kernels must be a tree."""
        from repro.apps import all_applications
        from repro.core.config import ACCURATE_CONFIG, default_configurations

        for app in all_applications():
            perforator = app.perforator()
            programs = [parse_program(app.kernel_source())] + [
                perforator.perforate(config).program
                for config in (ACCURATE_CONFIG, *default_configurations(app.halo))
            ]
            for program in programs:
                nodes = list(program.walk())
                assert len({id(n) for n in nodes}) == len(nodes), app.name

    def test_walk_visits_children(self):
        kernel = parse_kernel(GAUSSIAN_LIKE)
        nodes = list(kernel.walk())
        assert any(isinstance(n, ast.Call) and n.name == "clamp" for n in nodes)

    def test_node_visitor_dispatch(self):
        class CallCounter(ast.NodeVisitor):
            def __init__(self):
                self.calls = 0

            def visit_Call(self, node):
                self.calls += 1
                self.generic_visit(node)

        counter = CallCounter()
        counter.visit(parse_kernel(GAUSSIAN_LIKE))
        assert counter.calls >= 3  # get_global_id x2 + clamp
