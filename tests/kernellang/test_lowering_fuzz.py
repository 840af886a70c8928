"""Differential fuzzing of the lowering: interpreter ≡ codegen.

The codegen backend lowers a comparison, ``!``, ``&&`` or ``||`` to a bool
lane mask, composes ``&&``/``||`` as ``&``/``|`` when evaluating the right
operand on every lane is unobservable, and keeps a masked short-circuit
when it is not.  A hypothesis strategy builds well-formed two-buffer
kernels that mix int/float comparisons, ``!``, ``&&``, ``||`` and
ternaries, used as values (stored, added) and as the conditions of
divergent ``if`` and of bounded ``while`` loops.  Some right operands
would read a private array at a negative index, or divide by zero, on
exactly the lanes where the left operand already decides, and some
kernels divide by zero for real.

Both backends follow the type checker's C types, so the generator mixes
``int`` and ``float`` freely: ``?:`` arms, ``min``/``max``/``clamp``/
``select`` operands (varying and uniform), stores into variables of the
other type, and ``floor``/``ceil``/``round`` of either.  Every kernel
defines two helpers with random ``int``/``float`` parameter and return
types, one straight-line and one whose divergent ``if`` assigns a
parameter or returns early, which the kernel calls with uniform and
varying arguments of either type.  Float ``min``/``max``/``fmin``/
``fmax``/``clamp`` run on operands that can be ``+0.0`` or ``-0.0``
(their result's sign reaches the output through ``z``), and the ``float``
parameter ``s`` is passed the int 3.  Every kernel must lower (no fallback
to the interpreter) without an in-place write to a lane array, and:

* one codegen launch ≡ the interpreter: output bytes and
  :class:`~repro.clsim.executor.ExecutionStats`, or the same
  :class:`~repro.kernellang.errors.InterpreterError` message;
* one ``Executor.run_batch`` of B ∈ {1, 3, 8} requests ≡ B interpreter
  launches (outputs, summed stats, or the same error); B = 8 cycles the
  three seeded inputs;
* one example in four runs its codegen launches with
  ``codegen.MAX_PASS_LANES`` at 16, one work group per pass, so a launch
  takes several passes.

The generator keeps every value in range (``n`` stays in [-2, 2], and the
mutable accumulators never feed a product), so a mismatch is a lowering
fault.  ``tests/kernellang/test_c_oracle.py`` compiles the same kernels
as C and holds the interpreter to it.  Runs are derandomized, and each
example runs under the SIGALRM deadline of ``test_fuzz.py``.
``TestRegressionKernels`` keeps the shrunk counterexamples, one fixed
kernel per lowering rule, and the probe kernels on which the backends
once disagreed with C.
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_fuzz import deadline
from test_passes import in_place_writes

from repro.clsim import Buffer, Executor, KernelExecutionError, NDRange
from repro.data import generate_image
from repro.kernellang import codegen
from repro.kernellang.codegen import lower_kernel
from repro.kernellang.errors import InterpreterError
from repro.kernellang.interpreter import compile_kernel
from repro.kernellang.parser import parse_program

SIZE = 8
WORK_GROUP = (4, 4)
SEEDS = (3, 5, 8)

TEMPLATE = """
{helpers}
__kernel void k(__global const float* input, __global float* output,
                int width, int height, float s) {{
    int x = get_global_id(0);
    int y = get_global_id(1);
    int u = width / 4;
    float v = input[y * width + x];
    int n = (x + 2 * y) % 5 - 2;
    float w[5];
    w[0] = v;
    w[1] = v * 0.5f;
    w[2] = 1.0f - v;
    w[3] = (float)(n);
    w[4] = 0.25f;
    int acc = 0;
    float facc = 0.0f;
    float z = 1.0f;
{body}
    output[y * width + x] = z * (facc / 2 + (float)(acc) + w[0] + w[1] + w[2] + w[3] + w[4]);
}}
"""

INT_ATOMS = ("x", "y", "n", "u", "0", "1", "-1", "2", "3", "get_local_id(0)", "get_group_id(1)")
FLOAT_ATOMS = ("v", "0.5f", "-1.5f", "0.0f", "w[2]", "(float)(y)", "-0.0f", "(-0.0f * v)", "s")
#: Float arguments that are the same on every lane.
UNIFORM_FLOATS = ("0.5f", "-0.0f", "(float)(u)", "3.0f", "s")
#: Operands of the helper bodies (their parameters are ``a`` and ``b``).
HELPER_ATOMS = ("a", "b", "0.5f", "-0.0f", "0.0f", "1.5f", "2", "-1")
TYPES = ("int", "float")
ROUNDINGS = ("floor", "ceil", "round")
#: Operands of ``floor``/``ceil``/``round``: halves of both signs among them.
ROUNDED = ("v", "(v * 4.0f)", "((float)(n) + 0.5f)", "(v - 0.5f)", "n", "w[2]", "-1.5f")
MIN_MAX = ("max", "min", "fmax", "fmin")
#: Zeros of both signs (``v`` is positive and ``w[2] = 1 - v`` negative).
ZEROS = ("0.0f", "-0.0f", "(-0.0f * v)", "(0.0f * w[2])")
#: Zeros inside a helper, whose only variables are ``a`` and ``b``.
HELPER_ZEROS = ("0.0f", "-0.0f", "(-0.0f * b)")
COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")
#: Indices into ``w`` (5 elements) that are negative on some lanes, never >= 5.
GUARDED_INDICES = ("n", "(n - 1)", "(x % 5 - 1)")
#: Divisors that are zero on some lanes.
DIVISORS = ("n", "(x - y)", "(n - 1)")


def _pick(draw, options):
    return options[draw(st.integers(0, len(options) - 1))]


@st.composite
def int_exprs(draw, depth=2):
    kind = draw(st.integers(0, 4)) if depth > 0 else 0
    if kind == 0:
        return _pick(draw, INT_ATOMS)
    if kind == 1:
        op = _pick(draw, ("+", "-", "*"))
        return f"({draw(int_exprs(depth - 1))} {op} {draw(int_exprs(depth - 1))})"
    if kind == 2:
        return f"({draw(predicates(depth - 1))})"  # a predicate as a value
    if kind == 3:
        return f"(int)({draw(float_exprs(depth - 1))} * 4.0f)"
    if draw(st.integers(0, 3)) == 0:
        op = _pick(draw, ("min", "max", "abs"))
        if op == "abs":
            return f"abs({draw(int_exprs(depth - 1))})"
        return f"{op}({draw(int_exprs(depth - 1))}, {draw(int_exprs(depth - 1))})"
    cond = draw(predicates(depth - 1))
    return f"({cond} ? {draw(int_exprs(depth - 1))} : {draw(int_exprs(depth - 1))})"


@st.composite
def float_exprs(draw, depth=2):
    kind = draw(st.integers(0, 9)) if depth > 0 else 0
    if kind == 7:
        # Mixed arms: the ?: has type float, and an int arm converts.
        arms = [draw(int_exprs(depth - 1)), draw(float_exprs(depth - 1))]
        if draw(st.booleans()):
            arms.reverse()
        return f"({draw(predicates(depth - 1))} ? {arms[0]} : {arms[1]})"
    if kind == 8:
        return f"{_pick(draw, ROUNDINGS)}({_pick(draw, ROUNDED)})"
    if kind == 9:
        return draw(mixed_picks(depth - 1))
    if kind == 0:
        return _pick(draw, FLOAT_ATOMS)
    if kind == 1:
        op = _pick(draw, ("+", "-", "*"))
        return f"({draw(float_exprs(depth - 1))} {op} {draw(float_exprs(depth - 1))})"
    if kind == 2:
        return f"({draw(float_exprs(depth - 1))} + ({draw(predicates(depth - 1))}))"
    if kind == 3:
        return f"w[{draw(int_exprs(0))} % 3 + 2]"
    if kind == 5:
        return draw(min_max(float_exprs(depth - 1)))
    if kind == 6:
        return draw(helper_calls(depth - 1))
    cond = draw(predicates(depth - 1))
    return f"({cond} ? {draw(float_exprs(depth - 1))} : {draw(float_exprs(depth - 1))})"


@st.composite
def min_max(draw, operands, zeros=ZEROS):
    """A float ``min``/``max``/``fmin``/``fmax``/``clamp`` (either operand
    may be a signed zero, so its result's sign depends on the order)."""
    operand = st.one_of(st.sampled_from(zeros), operands)
    args = [draw(operand) for _ in range(3)]
    if draw(st.integers(0, 4)) == 0:
        return f"clamp({args[0]}, {args[1]}, {args[2]})"
    return f"{_pick(draw, MIN_MAX)}({args[0]}, {args[1]})"


@st.composite
def mixed_picks(draw, depth=1):
    """``min``/``max``/``clamp``/``select`` of varying int and float
    operands: the result has their common type."""
    operand = st.one_of(int_exprs(max(depth, 0)), float_exprs(max(depth, 0)))
    a, b, c = (draw(operand) for _ in range(3))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return f"{_pick(draw, ('min', 'max'))}({a}, {b})"
    if kind == 1:
        return f"clamp({a}, {b}, {c})"
    return f"select({a}, {b}, {draw(predicates(max(depth, 0)))})"


@st.composite
def uniform_picks(draw):
    """An operand picked from a uniform int and a float one: the value is
    the same on every lane, and its Python type depends on which wins."""
    pair = [_pick(draw, ("u", "1", "-1")), _pick(draw, ("2.5f", "-0.5f", "s"))]
    if draw(st.booleans()):
        pair.reverse()
    a, b = pair
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return f"{_pick(draw, MIN_MAX)}({a}, {b})"
    if kind == 1:
        return f"clamp({a}, {b}, {_pick(draw, ('u', '3', '0.75f'))})"
    if kind == 2:
        return f"({draw(uniform_predicates())} ? {a} : {b})"
    return f"select({a}, {b}, {draw(uniform_predicates())})"


@st.composite
def helper_calls(draw, depth=1):
    """A call of ``h1`` or ``h2`` with uniform or varying arguments of either
    type, which convert to the parameter types."""
    argument = st.one_of(
        st.sampled_from(UNIFORM_FLOATS + ("u", "2", "2.5f", "-1.5f", "(v * 4.0f)")),
        float_exprs(max(depth, 0)),
        int_exprs(max(depth - 1, 0)),
    )
    return f"{_pick(draw, ('h1', 'h2'))}({draw(argument)}, {draw(argument)})"


@st.composite
def helper_exprs(draw, depth=1):
    kind = draw(st.integers(0, 2)) if depth > 0 else 0
    if kind == 0:
        return _pick(draw, HELPER_ATOMS)
    if kind == 1:
        op = _pick(draw, ("+", "-", "*"))
        return f"({draw(helper_exprs(depth - 1))} {op} {draw(helper_exprs(depth - 1))})"
    return draw(min_max(helper_exprs(depth - 1), HELPER_ZEROS))


@st.composite
def helpers(draw):
    """``h1``, straight-line, and ``h2``, whose divergent ``if`` assigns a
    parameter or returns early; every parameter, local and return type is
    ``int`` or ``float``, so stores, arguments and returns convert."""
    t = [_pick(draw, TYPES) for _ in range(7)]
    first = f"a = {draw(helper_exprs())}; " if draw(st.booleans()) else ""
    h1 = (
        f"{t[0]} h1({t[1]} a, {t[2]} b) {{ {t[3]} c = {draw(helper_exprs())}; "
        f"{first}return c + a / 2 + b; }}"
    )
    value = _pick(draw, ("1", "3", "2.5f", draw(helper_exprs())))
    then = f"a = {value};" if draw(st.booleans()) else f"return {value};"
    cmp = _pick(draw, COMPARISONS)
    h2 = (
        f"{t[4]} h2({t[5]} a, {t[6]} b) {{ if (b {cmp} {_pick(draw, HELPER_ATOMS)}) "
        f"{{ {then} }} return a / 2 + b; }}"
    )
    return f"{h1}\n{h2}\n"


@st.composite
def guarded(draw):
    """A right operand the left one must keep from running on some lanes."""
    kind = draw(st.integers(0, 5))
    cmp = _pick(draw, COMPARISONS)
    if kind in (0, 1, 5):
        k = _pick(draw, GUARDED_INDICES)
        load = f"w[{k}] {cmp} {draw(float_exprs(1))}"
        if kind == 5:
            load = f"({load} || !(w[{k}] {cmp} {draw(float_exprs(0))}))"
        return f"({k} < 0 || {load})" if kind == 1 else f"({k} >= 0 && {load})"
    d = _pick(draw, DIVISORS)
    if kind == 2:
        return f"({d} != 0 && ({draw(int_exprs(1))} / {d}) {cmp} {draw(int_exprs(1))})"
    if kind == 3:
        return f"({d} == 0 || ({draw(int_exprs(1))} % {d}) {cmp} {draw(int_exprs(1))})"
    return f"((float)({d}) != 0.0f && ({draw(float_exprs(1))} / (float)({d})) {cmp} 0.5f)"


@st.composite
def uniform_predicates(draw):
    """The same on every lane: a uniform ``if`` or a uniform left operand."""
    return f"u {_pick(draw, COMPARISONS)} {_pick(draw, ('1', '2', '3'))}"


@st.composite
def predicates(draw, depth=2):
    kind = draw(st.integers(0, 9)) if depth > 0 else draw(st.integers(0, 1))
    cmp = _pick(draw, COMPARISONS)
    if kind == 0:
        return f"{draw(int_exprs(depth - 1))} {cmp} {draw(int_exprs(depth - 1))}"
    if kind == 8:
        return draw(uniform_predicates())
    if kind == 1:
        right = draw(st.one_of(float_exprs(depth - 1), int_exprs(depth - 1)))
        return f"{draw(float_exprs(depth - 1))} {cmp} {right}"
    if kind == 2:
        operand = st.one_of(
            predicates(depth - 1), uniform_predicates(), int_exprs(0), float_exprs(0)
        )
        return f"!({draw(operand)})"
    if kind in (3, 4):
        op = "&&" if kind == 3 else "||"
        left = draw(st.one_of(predicates(depth - 1), uniform_predicates()))
        return f"({left} {op} {draw(predicates(depth - 1))})"
    if kind in (5, 9):
        return draw(guarded())
    if kind == 6:
        return f"acc {cmp} {draw(int_exprs(depth - 1))}"
    return _pick(draw, ("n", "(x - y)", "facc", "(v - 0.5f)"))  # C truthiness


class _Names:
    """Fresh variable names for one kernel."""

    def __init__(self) -> None:
        self.count = 0

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"


@st.composite
def statements(draw, names, depth=2, in_loop=False):
    kinds = 11 if depth > 0 else 4
    kind = draw(st.integers(0, kinds + (1 if in_loop else 0)))
    if kind in (8, 9):
        # An int stored into a float variable converts, as in C.
        value = draw(st.one_of(int_exprs(), uniform_picks(), st.sampled_from(UNIFORM_FLOATS)))
        if kind == 8:
            return f"facc = {value};"
        name = names.fresh("f")
        value = draw(st.one_of(st.just(value), float_exprs()))
        return f"float {name} = {value}; facc = facc + {name} / 2;"
    if kind == 10:
        return f"z = {draw(min_max(st.one_of(float_exprs(1), int_exprs(0))))};"
    if kind == 11:
        return f"{_pick(draw, ('facc', 'acc'))} = {draw(helper_calls())} * 3;"
    if kind == 0:
        # A float added to the int slot truncates, as in C.
        value = draw(st.one_of(int_exprs(), float_exprs()))
        return f"acc = acc + {value};"
    if kind == 1:
        target = _pick(draw, ("facc", f"w[{draw(int_exprs(0))} % 3 + 2]"))
        return f"{target} = {target} + {draw(float_exprs())};"
    if kind == 2:
        name, scale = names.fresh("b"), _pick(draw, ("1", "3"))
        return f"int {name} = {draw(predicates())}; acc = acc + {name} * {scale};"
    if kind == 3:
        return f"output[y * width + x] = {draw(predicates())};"
    if kind == 4:
        # Divides by zero for real (an error to match) on one draw in four.
        d = _pick(draw, DIVISORS)
        offset = _pick(draw, ("1", "2", "5", "0"))
        return f"if ({draw(predicates(1))}) {{ acc = acc + (x + 1) / ({d} * {d} + {offset}); }}"
    if kind in (5, 6):
        then = draw(blocks(names, depth - 1, in_loop))
        if kind == 5:
            return f"if ({draw(predicates())}) {{ {then} }}"
        other = draw(blocks(names, depth - 1, in_loop))
        return f"if ({draw(predicates())}) {{ {then} }} else {{ {other} }}"
    if kind == 7:
        counter = names.fresh("t")
        limit = draw(st.integers(1, 8))
        cond = draw(predicates())
        test = f"{counter} < {limit} && ({cond})"
        if draw(st.booleans()):
            test = f"({cond}) && {counter} < {limit}"
        body = draw(blocks(names, depth - 1, True))
        return f"int {counter} = 0; while ({test}) {{ {counter} = {counter} + 1; {body} }}"
    return f"if ({draw(predicates(1))}) {{ {_pick(draw, ('break;', 'continue;'))} }}"


@st.composite
def blocks(draw, names, depth=2, in_loop=False):
    count = draw(st.integers(1, 3))
    return " ".join(draw(statements(names, depth, in_loop)) for _ in range(count))


@st.composite
def kernels(draw):
    body = draw(blocks(_Names()))
    return TEMPLATE.format(helpers=draw(helpers()), body="    " + body)


def _bind(seed: int) -> dict:
    image = generate_image("natural", size=SIZE, seed=seed)
    return {
        "input": Buffer(image, "input"),
        "output": Buffer(np.zeros_like(image), "output"),
        "width": SIZE,
        "height": SIZE,
        "s": 3,
    }


def _stats(stats) -> tuple:
    return (
        stats.work_items,
        stats.work_groups,
        stats.barriers,
        stats.global_counters.reads,
        stats.global_counters.writes,
        stats.local_counters.reads,
        stats.local_counters.writes,
        stats.private_counters.reads,
        stats.private_counters.writes,
    )


def _outcome(launch, bound: list[dict]):
    """Output bytes and stats of one launch, or the message of the
    :class:`InterpreterError` it failed with (each backend wraps it in its
    own :class:`KernelExecutionError`)."""
    try:
        stats = launch()
    except KernelExecutionError as exc:
        assert isinstance(exc.__cause__, InterpreterError), exc
        return ("error", str(exc.__cause__))
    return (tuple(b["output"].array.tobytes() for b in bound), _stats(stats))


def _single(backend: str, kernel, ndrange, seed: int):
    bound = [_bind(seed)]
    return _outcome(lambda: Executor(backend=backend).run(kernel, ndrange, bound[0]), bound)


def check_kernel(source: str, batch: int = 3, small_passes: bool = False) -> None:
    """The lowering of ``source`` agrees with the interpreter, alone and in a
    batch of ``batch`` requests (cycling :data:`SEEDS`); ``small_passes``
    runs every codegen launch one work group per pass."""
    passes = mock.patch.object(codegen, "MAX_PASS_LANES", 16) if small_passes else nullcontext()
    with deadline(), passes:
        lowered = lower_kernel(parse_program(source), "k", WORK_GROUP)  # no fallback
        assert in_place_writes(lowered) == [], source
        kernel = compile_kernel(source)
        ndrange = NDRange((SIZE, SIZE), WORK_GROUP)
        seeds = SEEDS[:batch]
        expected = [_single("interpreter", kernel, ndrange, seed) for seed in seeds]
        assert _single("codegen", kernel, ndrange, SEEDS[0]) == expected[0], source

        requests = [expected[i % len(seeds)] for i in range(batch)]
        bound = [_bind(seeds[i % len(seeds)]) for i in range(batch)]
        executor = Executor(backend="codegen")
        batched = _outcome(lambda: executor.run_batch(kernel, ndrange, bound), bound)
        errors = [outcome for outcome in requests if outcome[0] == "error"]
        if errors:
            assert batched == errors[0], source
        else:
            outputs = tuple(out for outcome in requests for out in outcome[0])
            summed = tuple(sum(column) for column in zip(*(o[1] for o in requests)))
            assert batched == (outputs, summed), source


FUZZ_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


#: Batch sizes and the one-in-four multi-pass launch of each example.
BATCHES = st.sampled_from((1, 3, 8))
SMALL_PASSES = st.integers(0, 3).map(lambda draw: draw == 0)


class TestPredicateFuzz:
    @given(source=kernels(), batch=BATCHES, small_passes=SMALL_PASSES)
    @settings(max_examples=150, **FUZZ_SETTINGS)
    def test_codegen_matches_interpreter(self, source, batch, small_passes):
        check_kernel(source, batch, small_passes)

    @pytest.mark.slow
    @given(source=kernels(), batch=BATCHES, small_passes=SMALL_PASSES)
    @settings(max_examples=1500, **FUZZ_SETTINGS)
    def test_codegen_matches_interpreter_nightly(self, source, batch, small_passes):
        check_kernel(source, batch, small_passes)


#: Kernels that stage a ``__local`` tile the way the perforation passes do:
#: loops strided by a literal from a local id to a literal bound (trip
#: counts of 0, 1 and more, starts past the bound), a barrier at top level,
#: then reads of the tile at local-id-based indices, ``clamp``s of local
#: ids that bind on some lanes or on none, and private indices a loop
#: counter drives to -1 on some active lanes.  A wrong range proof shows up
#: as a missing :class:`InterpreterError` or a wrong value.
#:
#: The interpreter runs each work-item to its end (or its barrier) before
#: the next, codegen each statement over every lane, so two statements that
#: fail on different lanes would name different first errors.  One
#: statement per kernel may therefore fail (its ``risky`` form): out of
#: bounds on any lane if it runs once per lane, at a single index
#: (``-1``, or the tile's length) if it runs in a loop.
LOCAL_TEMPLATE = """
__kernel void k(__global const float* input, __global float* output,
                int width, int height, float s) {{
    __local float tile[{tile}];
    int x = get_global_id(0);
    int y = get_global_id(1);
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    float v = input[y * width + x];
    float p[4];
    p[0] = v;
    p[1] = 0.5f;
    p[2] = 1.0f - v;
    p[3] = -v;
    int acc = 0;
    float facc = 0.0f;
{staging}
    barrier(CLK_LOCAL_MEM_FENCE);
{body}
    output[y * width + x] = facc + (float)(acc) + {reads};
}}
"""
#: The tile's length.
TILE = 24
#: Values staged into the tile: the same for every lane that stores an
#: index (lanes of one group race on it), different across groups.
STAGED = "(float)({i}) * 0.5f + (float)(get_group_id(0)) - (float)(get_group_id(1)) * 0.25f"


@st.composite
def lid_exprs(draw, risky=False):
    """``get_local_id(d) * a + c``: in the tile unless ``risky``."""
    d = draw(st.integers(0, 1))
    if risky:
        a, c = _pick(draw, (1, 2, -1, 3)), draw(st.integers(-3, 15))
    else:
        a, c = _pick(draw, (1, 2, 3)), draw(st.integers(0, 14))
    return f"(get_local_id({d}) * {a} + {c})"


@st.composite
def counted_loops(draw, names, body_of, risky=False, start=None):
    """``for (int i = get_local_id(d) + c; i < B; i += S)``, its bound
    sometimes inclusive and its step sometimes ``i++``; a risky loop may
    start at -1 or reach index :data:`TILE`.  Given ``start``, a variable,
    the loop starts from it instead."""
    i = names.fresh("i")
    d, c = draw(st.integers(0, 1)), draw(st.integers(-1 if risky else 0, 8))
    inclusive = draw(st.booleans())
    # The largest index a safe loop stores is TILE - 1, a risky one's TILE.
    bound = draw(st.integers(0, TILE - inclusive + risky))
    step = draw(st.integers(1, 5))
    test = f"{i} {'<=' if inclusive else '<'} {bound}"
    increment = f"{i}++" if step == 1 and draw(st.booleans()) else f"{i} += {step}"
    first = start or f"get_local_id({d}) + {c}"
    return f"for (int {i} = {first}; {test}; {increment}) {{ {body_of(i)} }}"


@st.composite
def staging(draw, names, risky):
    """One or two staging loops, the second sometimes nested in the first."""
    store = lambda i: f"tile[{i}] = {STAGED.format(i=i)};"  # noqa: E731
    first = draw(counted_loops(names, store, risky))
    if draw(st.booleans()):
        return first
    if draw(st.booleans()):
        return first + " " + draw(counted_loops(names, store))
    outer = names.fresh("r")
    inner = draw(counted_loops(names, lambda i: store(f"({outer} * 6 + {i}) % {TILE}")))
    return f"for (int {outer} = get_local_id(1); {outer} < 4; {outer} += 3) {{ {inner} }}"


@st.composite
def local_statements(draw, names, risky):
    kind = draw(st.integers(0, 9))
    low = draw(st.integers(-1 if risky else 0, 3))
    high = min(low + draw(st.integers(0, 9)), TILE if risky else TILE - 1)
    if kind == 0:
        return f"acc = acc + clamp({draw(lid_exprs(True))}, {low - 2}, {high});"
    if kind == 1:
        return f"facc = facc + tile[clamp({draw(lid_exprs(True))}, {low}, {high})];"
    if kind == 2:
        return f"facc = facc + tile[{draw(lid_exprs(risky))}];"
    if kind == 3:
        offset = draw(st.integers(-1, 2)) if risky else 0
        return f"facc = facc + p[lx + {offset}];"
    if kind == 4:
        # Median's insertion step: the guard keeps j >= g on the lanes that
        # load, and g = -1 lets lanes load p[-1].
        j = names.fresh("j")
        start, guard = (draw(st.integers(-1, 3)), _pick(draw, (0, 0, -1))) if risky else (-1, 0)
        return (
            f"int {j} = lx + {start}; while ({j} >= {guard} && p[{j}] > v) "
            f"{{ p[{j} + 1] = p[{j}]; {j} = {j} - 1; }} acc = acc + {j};"
        )
    if kind == 5:
        t, j, count = names.fresh("t"), names.fresh("j"), draw(st.integers(1, 5))
        offset = draw(st.integers(-1, 0))
        read = f"facc = facc + p[{j}];"
        if not risky or draw(st.booleans()):
            read = f"if ({j} >= 0 && {j} < 4) {{ {read} }}"
        loop = f"for (int {t} = 0; {t} < {count}; {t}++)"
        return f"{loop} {{ int {j} = lx - {t} + {offset}; {read} }}"
    if kind == 6:
        offset = draw(st.integers(-1, 2)) if risky else draw(st.integers(1, 2))
        divisor = f"(get_local_id({draw(st.integers(0, 1))}) + {offset})"
        return f"acc = acc + (x + 5) / {divisor} + (y + 7) % {divisor};"
    if kind == 7:
        # A pick, comparison or truth test the ranges decide, whose dropped
        # operand loads or divides (by zero on one lane, if risky).
        offset = draw(st.integers(-1, 2)) if risky else draw(st.integers(1, 2))
        loud = _pick(draw, (
            f"(int)(tile[{draw(lid_exprs())}] * 4.0f)",
            f"(int)(p[lx + {offset if risky else 0}] * 4.0f)",
            f"(x + 3) / (get_local_id({draw(st.integers(0, 1))}) + {offset})",
        ))
        return _pick(draw, (
            f"acc = acc + min(lx, clamp({loud}, 20, 30));",
            f"if (clamp({loud}, 0, 3) < 5) {{ acc = acc + 1; }}",
            f"acc = acc + !clamp({loud}, 1, 3);",
        ))
    body = lambda q: f"acc = acc + {q}; facc = facc + tile[{q} % {TILE}];"  # noqa: E731
    if kind == 8:
        # The loop starts from a variable its body assigns.
        s, c = names.fresh("s"), draw(st.integers(-1 if risky else 0, 8))
        bump = lambda q: f"{s} = {s} + 2; " + body(q)  # noqa: E731
        loop = draw(counted_loops(names, bump, risky, start=s))
        return f"int {s} = get_local_id({draw(st.integers(0, 1))}) + {c}; {loop} acc = acc + {s};"
    loop = draw(counted_loops(names, body, risky))
    return f"if (v > 0.5f) {{ {loop} }}" if draw(st.booleans()) else loop


@st.composite
def local_kernels(draw):
    names = _Names()
    count = draw(st.integers(1, 4))
    risky = draw(st.integers(0, count + 1))  # the one statement that may fail
    body = " ".join(draw(local_statements(names, risky == k)) for k in range(count))
    reads = " + ".join(
        f"tile[{draw(lid_exprs(risky == count + 1 and k == 0))}]"
        for k in range(draw(st.integers(1, 2)))
    )
    return LOCAL_TEMPLATE.format(
        tile=TILE, staging="    " + draw(staging(names, risky == count)),
        body="    " + body, reads=reads,
    )


class TestLocalMemoryFuzz:
    @given(source=local_kernels(), batch=BATCHES, small_passes=SMALL_PASSES)
    @settings(max_examples=60, **FUZZ_SETTINGS)
    def test_codegen_matches_interpreter(self, source, batch, small_passes):
        check_kernel(source, batch, small_passes)

    @pytest.mark.slow
    @given(source=local_kernels(), batch=BATCHES, small_passes=SMALL_PASSES)
    @settings(max_examples=600, **FUZZ_SETTINGS)
    def test_codegen_matches_interpreter_nightly(self, source, batch, small_passes):
        check_kernel(source, batch, small_passes)


#: Helpers of the probe kernels: a declared return type converts the value
#: returned, and an early ``return 1`` in a ``float`` helper returns 1.0.
PROBE_HELPERS = """
float g(float a) { return 3; }
float h(float a, int c) { if (c > 3) { return 1; } return a; }
bool nz(int a) { return a; }
"""
PROBE_TEMPLATE = """{helpers}
__kernel void k(__global const float* input, __global float* output) {{
    int x = get_global_id(0);
    float v = input[x];
    output[x] = {statement};
}}
"""
#: The probe's eight lanes (one per value) in work groups of four.
PROBE_INPUT = np.array([0.5, 1.5, 2.5, -2.5, -7.0, 3.0, -0.5, 4.0])
PROBE_GLOBAL, PROBE_LOCAL = (8,), (4,)
#: Each statement and its values under C: ``floor`` is a float function,
#: ``round`` rounds half away from zero, and ``?:``, ``min`` and helper
#: returns convert to float.
PROBE_ROWS = [
    ("floor(v) / 2", [0.0, 0.5, 1.0, -1.5, -3.5, 1.5, -0.5, 2.0]),
    ("round(v)", [1.0, 2.0, 3.0, -3.0, -7.0, 3.0, -1.0, 4.0]),
    ("(x > 3 ? 1 : 2.5f) / 2", [1.25] * 4 + [0.5] * 4),
    ("min(x, 9.5f) / 16", [x / 16 for x in range(8)]),
    ("h(0.5f, x) / 2", [0.25] * 4 + [0.5] * 4),
    ("g(v) / 2", [1.5] * 8),
    ("nz(x - 3) + (bool)(x + 4)", [2.0, 2.0, 2.0, 1.0, 2.0, 2.0, 2.0, 2.0]),
]


def probe_source(statement: str) -> str:
    return PROBE_TEMPLATE.format(helpers=PROBE_HELPERS, statement=statement)


def run_probe(statement: str, backend: str) -> np.ndarray:
    output = Buffer(np.zeros_like(PROBE_INPUT), "output")
    Executor(backend=backend).run(
        compile_kernel(probe_source(statement)),
        NDRange(PROBE_GLOBAL, PROBE_LOCAL),
        {"input": Buffer(PROBE_INPUT.copy(), "input"), "output": output},
    )
    return output.array


#: The helpers the fuzzer shrinks to; the fixed kernels define them too.
SHRUNK_HELPERS = """
float h1(float a, float b) { float c = a; a = a; return c + a / 2; }
float h2(float a, float b) { if (b <= a) { a = 1; } return a / 2 + b; }
"""


class TestRegressionKernels:
    """Fixed kernels: the fuzzer's shrunk counterexamples, and one kernel per
    lowering rule that the random budget may not reach (each fails if the
    rule it names is broken)."""

    @pytest.mark.parametrize(
        "body",
        [
            # The median guard: the load must not run where n < 0.
            "while (n >= 0 && w[n] > v) { n = n - 1; acc = acc + 1; }",
            "if (n < 0 || w[n] > 0.5f) { acc = acc + 1; }",
            # Uniform left operand, guarded varying right operand.
            "if (u > 1 && (n - 1) >= 0 && w[n - 1] < v) { facc = facc + 1.0f; }",
            "if (u < 1 || (x - y) == 0 || (7 / (x - y)) > 1) { acc = acc + 2; }",
            "if (u > 2 || (n >= 0 && w[n] > v)) { acc = acc + 1; }",
            "if (u > 2 || (x != y && (7 / (x - y)) > 1)) { acc = acc + 1; }",
            "acc = acc + (!(u > 2) && (x % 5 - 1) >= 0 && w[x % 5 - 1] < 0.5f);",
            # Predicates as values: stored, added, negated, in a ternary.
            "int b1 = !(v < 0.5f) || n > 0; acc = acc + b1 * 3 + (x > y);",
            "acc = acc + ((x > y) + (n < 0)) * 2 - (v > 0.5f) + !(u < 3);",
            "acc = acc + (u > 2 || (n >= 0 && w[n] > v)) * 5 - (u < 3 || n > 0);",
            "output[y * width + x] = (n > 0) ? (v < 0.25f) : !n;",
            # A real division by zero raises the interpreter's message.
            "if (x > 2) { acc = acc + (x + 1) / n; }",
            # Shrunk: the same error, wrapped differently by each backend.
            "if (x < y) { acc = acc + (x + 1) / (n * n + 0); }",
            # Shrunk: a uniform argument that a helper assigns under a
            # divergent mask needs a lane array.
            "facc = (int)(h2(0.5f, 0.5f) * 4.0f);",
            "acc = acc + ((n >= 0 && w[n] < h1(0.5f, 0.5f)));",
            "if (x < y) { facc = h1(3.0f, v) + h2(3.0f, (float)(x)); }",
            # Shrunk: float min/max/clamp keep the first of two equal zeros.
            "z = clamp(0.0f, 0.0f, (-0.0f * v));",
            "z = max(-0.0f * v, 0.0f);",
            "if (x > y) { z = fmin(0.0f, -0.0f * v); }",
            # Shrunk: a float variable or parameter converts an int.
            "facc = x;",
            "if (x < y) { facc = x; }",
            "float f1 = n; facc = facc + f1 / 2;",
            "acc = acc + h2(0.5f, 0.5f);",
            # Shrunk: an int picked from an int and a float operand, and a
            # float parameter passed an int, convert in a float variable.
            "facc = select(1, 2.5f, u < 1);",
            "facc = s;",
            # Mixed int/float operands of varying ?:, min, clamp and select
            # take their common type, as do helper arguments and returns.
            "facc = (x > y ? 1 : 2.5f) + min(x, v) + clamp(n, v, 2) + select(x, v, n > 0);",
            "if (x < y) { facc = max(n, w[2]) / 2; }",
            "facc = round((float)(n) + 0.5f) + floor(v * 4.0f) + ceil(n);",
        ],
    )
    def test_fixed_kernel(self, body):
        check_kernel(TEMPLATE.format(helpers=SHRUNK_HELPERS, body="    " + body))

    @pytest.mark.parametrize(
        "body",
        [
            # Trip loops, and the twins that keep the masked loop: a body
            # with `continue`, a body assigning the loop variable, a
            # runtime bound.
            "for (int t = get_local_id(0) + 1; t < 6; t += 4) "
            "{ acc = acc + t; w[t % 5] = v; }",
            "for (int t = get_local_id(1); t <= 4; t++) { facc = facc + w[t]; }",
            "for (int t = get_local_id(0) + 9; t < 6; t += 4) { acc = acc + t; }",
            "for (int t = get_local_id(0); t < 6; t += 4) "
            "{ if (x > y) { continue; } acc = acc + t; }",
            "for (int t = get_local_id(0); t < 9; t += 2) "
            "{ if (v > 0.5f) { t = t + 1; } acc = acc + t; }",
            "for (int t = get_local_id(0); t < width; t += 3) { acc = acc + t; }",
            "if (v > 0.5f) "
            "{ for (int t = get_local_id(0); t < 5; t += 2) { facc = facc + w[t]; } }",
            # A trip loop's start is its value on entry: the body may assign
            # the variable it was read from (the twin does not).
            "int j = get_local_id(0); for (int t = j; t < 8; t++) { j = j + 1; acc = acc + t; }",
            "int j = get_local_id(0); for (int t = j; t < 5; t++) "
            "{ j = j + 2; facc = facc + w[t]; } acc = acc + j;",
            "int j = get_local_id(0); for (int t = j; t < 8; t++) { acc = acc + t + j; }",
            # A clamp that never binds is its operand; one that binds on a
            # single lane (local id 3) is kept.
            "acc = acc + clamp(get_local_id(0) + 1, 0, 4) + min(get_local_id(1), 3);",
            "acc = acc + clamp(get_local_id(0) + 1, 0, 3) + max(get_local_id(1), 1);",
            # A decided comparison, pick or truth test drops the code of its
            # other operands only where that code can neither raise nor
            # read memory: a division by zero, a load and a float-to-int
            # conversion stay (each has a quiet twin).
            "acc = acc + min(get_local_id(0), clamp(8 / get_local_id(0), 20, 30));",
            "acc = acc + min(get_local_id(0), clamp(x + 8, 20, 30));",
            "if (clamp((int)input[y * width + x], 0, 3) < 5) { acc = acc + 1; }",
            "if (clamp((int)(v * FLT_MAX * 10.0f), 0, 3) < 5) { acc = acc + 1; }",
            "if (clamp(x, 0, 3) < 5) { acc = acc + 1; }",
            "if (clamp((int)(v * FLT_MAX * 10.0f), 1, 3)) { acc = acc + 1; }",
            "if (clamp(x, 1, 3)) { acc = acc + 1; }",
            "if ((int)(v * FLT_MAX * 10.0f) && get_local_id(0) < 0) { acc = acc + 1; }",
            "if (x > 2 && get_local_id(0) < 0) { acc = acc + 1; }",
            "bool b = clamp((int)(v * FLT_MAX * 10.0f), 1, 3); acc = acc + b;",
            "bool b = clamp(x, 1, 3); acc = acc + b;",
            "acc = acc + !clamp((int)input[y * width + x], 1, 3);",
            "acc = acc + !clamp(x, 1, 3);",
            # An in-bounds private index skips its check; one past the end on
            # one active lane keeps the interpreter's error.
            "facc = facc + w[get_local_id(0) + 1];",
            "facc = facc + w[get_local_id(0) + 2];",
            # Median's insertion step: every lane's j stays in [-1, 4], so the
            # loads gather; a guard of -1 loads w[-1] on an active lane.
            "int j = get_local_id(0) + 1; while (j >= 0 && w[j] > v) "
            "{ w[j] = w[j] + 1.0f; j = j - 1; } acc = acc + j;",
            "int j = get_local_id(0) + 1; while (j >= -1 && w[j] > -5.0f) { j = j - 1; }",
            # A divisor that excludes zero skips the zero scan; one that is
            # zero on a lane raises.
            "acc = acc + (x + 7) / (get_local_id(0) + 1) + (y + 3) % (get_local_id(1) + 2);",
            "acc = acc + (x + 7) / get_local_id(0);",
            "acc = acc + (x + 7) % (get_local_id(1) - 1);",
            # A declaration under a divergent mask binds every lane; a
            # declaration that shadows an outer variable keeps its merge
            # (both backends keep one slot per name).
            "if (x > y) { int t = x; t = t + 1; acc = acc + t; }",
            "int t = 1; if (x > y) { int t = 5; acc = acc + t; } acc = acc + t;",
            # A branch's facts stay in the branch: the else branch still
            # sees k past the end of w.
            "int k = get_local_id(0) + 5; "
            "if ((float)(x) > 3.5f) { k = 1; } else { facc = facc + w[k]; }",
            "int k = get_local_id(0); if ((float)(x) > 3.5f) { k = k + 5; } facc = facc + w[k];",
            # Unread values are not computed, unless they can raise.
            "int dead = clamp(x + 1, 0, width - 1); acc = acc + 1;",
            "int dead = (int)(w[n] * 2.0f); acc = acc + 1;",
        ],
    )
    def test_range_rule(self, body):
        check_kernel(TEMPLATE.format(helpers=SHRUNK_HELPERS, body="    " + body))

    @pytest.mark.parametrize(
        "staging,body,reads",
        [
            # The paper's staging idiom: every store and read is in bounds.
            ("for (int i = get_local_id(0); i < 24; i += 4) { tile[i] = (float)(i); }",
             "facc = facc + tile[clamp(get_local_id(1) * 3 + 1, 0, 23)];", "tile[lx + 20]"),
            # A staging loop that stores one past the tile on one lane, and a
            # read one past the end on one active lane: the errors stay.
            ("for (int i = get_local_id(0) + 1; i < 25; i += 4) { tile[i] = (float)(i); }",
             "", "tile[lx]"),
            ("for (int i = get_local_id(0); i < 24; i += 4) { tile[i] = (float)(i); }",
             "", "tile[lx + 21]"),
            # A trip loop under a divergent mask.
            ("for (int i = get_local_id(1) * 6; i <= 23; i++) { tile[i] = (float)(i); }",
             "if (v > 0.5f) { for (int q = lx; q < 7; q += 3) { facc = facc + tile[q]; } }",
             "tile[ly]"),
        ],
    )
    def test_range_rule_on_a_local_tile(self, staging, body, reads):
        check_kernel(LOCAL_TEMPLATE.format(
            tile=TILE, staging="    " + staging, body="    " + body, reads=reads
        ))

    @pytest.mark.parametrize("batch", [1, 8])
    def test_fixed_kernel_with_multi_pass_launches(self, batch):
        body = "if (x < y) { facc = h1(3.0f, v) + h2(3.0f, (float)(x)); }"
        check_kernel(TEMPLATE.format(helpers=SHRUNK_HELPERS, body="    " + body), batch, True)

    @pytest.mark.parametrize("statement,expected", PROBE_ROWS, ids=[r[0] for r in PROBE_ROWS])
    def test_probe_rows_give_cs_values(self, statement, expected):
        """Seven statements on which the interpreter and codegen once gave
        values C does not (the C oracle checks the same kernels)."""
        for backend in ("interpreter", "codegen"):
            np.testing.assert_array_equal(run_probe(statement, backend), expected)

    @staticmethod
    def _run_values(statement: str, values, backend: str):
        source = PROBE_TEMPLATE.format(helpers="", statement=statement)
        inputs = np.array(values, dtype=np.float64)
        output = Buffer(np.zeros_like(inputs), "output")
        Executor(backend=backend).run(
            compile_kernel(source),
            NDRange((inputs.size,), (inputs.size,)),
            {"input": Buffer(inputs, "input"), "output": output},
        )
        return output.array

    def test_sign_of_nan_and_zeros_is_positive_zero(self):
        """OpenCL's sign: 0.0 for a NaN, and the interpreter's +0.0 for -0.0."""
        values = [np.nan, -0.0, 0.0, 2.5, -3.0, -np.nan, np.inf, -np.inf]
        for backend in ("interpreter", "codegen"):
            out = self._run_values("sign(v)", values, backend)
            np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 1.0, -1.0])
            assert not np.signbit(out[out == 0]).any()

    @pytest.mark.parametrize(
        "values,message",
        [
            ([0.0, np.nan, -0.0, 4.0], "cannot convert nan to int"),
            ([0.0, -0.0, np.inf, np.nan], "cannot convert inf to int"),
            ([0.0, 0.5, -0.0, 4.0], "cannot convert 1.7014117"),
        ],
    )
    def test_float_to_int_beyond_int64_raises_alike(self, values, message):
        """C leaves the conversion undefined; both backends raise the same
        error for the first lane no int64 holds."""
        source = PROBE_TEMPLATE.format(
            helpers="", statement="0; int i = input[x] * FLT_MAX * 10.0f; output[x] = i"
        )
        messages = []
        for backend in ("interpreter", "codegen"):
            inputs = np.array(values, dtype=np.float64)
            with pytest.raises(KernelExecutionError) as info:
                Executor(backend=backend).run(
                    compile_kernel(source),
                    NDRange((4,), (4,)),
                    {"input": Buffer(inputs, "input"), "output": Buffer(np.zeros(4), "output")},
                )
            assert isinstance(info.value.__cause__, InterpreterError)
            messages.append(str(info.value.__cause__))
        assert messages[0] == messages[1]
        assert message in messages[0]

    def test_bool_variables_hold_zero_or_one(self):
        body = "bool b = x + 4; bool c = v; facc = b + c + (bool)(x - 3);"
        check_kernel(TEMPLATE.format(helpers=SHRUNK_HELPERS, body="    " + body))
        for backend in ("interpreter", "codegen"):
            out = self._run_values("0; bool b = x + 4; output[x] = b", [0.5] * 4, backend)
            np.testing.assert_array_equal(out, [1.0] * 4)
