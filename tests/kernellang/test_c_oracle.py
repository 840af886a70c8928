"""A C compiler as a third oracle: the interpreter computes what C computes.

``clgen.generate`` prints each kernel as OpenCL C.  This module compiles
that text as host C99 (``cc -std=c99 ... -lm``) behind a short prelude,
runs every work item in a loop, and compares the output bytes with the
interpreter's (which codegen matches, by the lowering fuzzer).  The prelude
maps ``__kernel``, ``__global`` and ``__constant`` away, ``float`` to
``double`` (the simulator's ``float`` is float64) and the work-item queries
to the loop variables.  It defines ``min``, ``max``, ``fmin``, ``fmax`` and
``clamp`` as macros with the simulator's selection rule (the second operand
wins only where it is strictly smaller or larger), and ``mix``, ``mad``,
``select`` and ``abs`` too: C's own ``abs`` takes an ``int``.  Float
literals lose their ``f`` suffix, which would make them float32 constants.

The kernels are the probe rows of ``test_lowering_fuzz.py`` and kernels
from its generator, which puts only int operands under ``%`` and keeps
values far inside 32 bits; a generated kernel takes part when the
interpreter runs it without raising.  The C program runs the work-items
one after another, so it cannot honour a barrier: a kernel with one is
skipped (the fuzzer's local-memory kernels all have one; the generator
used here has none).  All
kernels of one test go into one translation unit, each renamed by macros,
so a test pays for one compile.  This is the differential method of Csmith
(Yang et al., PLDI 2011) and CLsmith (Lidbury et al., PLDI 2015).
"""

from __future__ import annotations

import re
import shutil
import subprocess
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from test_lowering_fuzz import (
    FUZZ_SETTINGS,
    PROBE_GLOBAL,
    PROBE_INPUT,
    PROBE_LOCAL,
    PROBE_ROWS,
    SEEDS,
    SIZE,
    WORK_GROUP,
    _bind,
    kernels,
    probe_source,
)

from repro.clsim import Buffer, Executor, KernelExecutionError, NDRange
from repro.kernellang.clgen import generate
from repro.kernellang.interpreter import compile_kernel
from repro.kernellang.parser import parse_program
from repro.kernellang.types import PointerType

CC = shutil.which("cc")
pytestmark = pytest.mark.skipif(CC is None, reason="no C compiler (cc) on PATH")

PRELUDE = r"""
#include <math.h>
#include <stdbool.h>
#include <stdio.h>
#define __kernel
#define __global
#define __constant
#define float double
static int _gid[2], _gsz[2], _lsz[2];
#define get_global_id(d) _gid[d]
#define get_local_id(d) (_gid[d] % _lsz[d])
#define get_group_id(d) (_gid[d] / _lsz[d])
#define get_global_size(d) _gsz[d]
#define get_local_size(d) _lsz[d]
#define get_num_groups(d) (_gsz[d] / _lsz[d])
#define min(a, b) ((b) < (a) ? (b) : (a))
#define max(a, b) ((b) > (a) ? (b) : (a))
#define fmin(a, b) ((double)min(a, b))
#define fmax(a, b) ((double)max(a, b))
#define clamp(x, lo, hi) min(max(x, lo), hi)
#define mix(a, b, t) ((a) + ((b) - (a)) * (t))
#define mad(a, b, c) ((a) * (b) + (c))
#define select(a, b, c) ((c) ? (b) : (a))
#define abs(x) ((x) < 0 ? -(x) : (x) + 0)
"""

#: The ``f`` of a float literal such as ``0.5f`` or ``1e+16f``.
_FLOAT_SUFFIX = re.compile(r"(?<=[0-9.])f\b")

#: Generated kernels per run: the fast budget stays within 5 s.
FAST_KERNELS = 50
NIGHTLY_KERNELS = 500


@dataclass
class Case:
    """One kernel launch: its source, its arguments and its NDRange."""

    source: str
    args: dict
    global_size: tuple
    local_size: tuple


def interpreter_outputs(case: Case) -> dict[str, bytes] | None:
    """Every buffer's bytes after an interpreter launch, or ``None`` if the
    launch raises (C leaves such a kernel undefined or traps)."""
    bound = {
        name: Buffer(value.copy(), name) if isinstance(value, np.ndarray) else value
        for name, value in case.args.items()
    }
    try:
        Executor(backend="interpreter").run(
            compile_kernel(case.source), NDRange(case.global_size, case.local_size), bound
        )
    except KernelExecutionError:
        return None
    return {name: b.array.tobytes() for name, b in bound.items() if isinstance(b, Buffer)}


def _c_value(value) -> str:
    return float(value).hex() if isinstance(value, float) else str(int(value))


def c_unit(cases: list[Case]) -> str:
    """One translation unit: every kernel, renamed, and a ``main`` that runs
    each over its NDRange and writes its buffers to stdout, in order."""
    parts, main = [PRELUDE], ["int main(void) {"]
    for i, case in enumerate(cases):
        program = parse_program(case.source)
        names = [f.name for f in program.functions]
        parts += [f"#define {name} {name}_{i}" for name in names]
        parts.append(_FLOAT_SUFFIX.sub("", generate(program)))
        parts += [f"#undef {name}" for name in names]
        kernel = program.kernel()
        call = []
        for param in kernel.params:
            value = case.args[param.name]
            if isinstance(param.param_type, PointerType):
                data = ", ".join(float(v).hex() for v in value.reshape(-1))
                parts.append(f"static double _b{i}_{param.name}[] = {{{data}}};")
                call.append(f"_b{i}_{param.name}")
            else:
                call.append(_c_value(value))
        dims = list(case.global_size) + [1] * (2 - len(case.global_size))
        local = list(case.local_size) + [1] * (2 - len(case.local_size))
        main.append(f"  _gsz[0] = {dims[0]}; _gsz[1] = {dims[1]};")
        main.append(f"  _lsz[0] = {local[0]}; _lsz[1] = {local[1]};")
        main.append("  for (_gid[1] = 0; _gid[1] < _gsz[1]; _gid[1]++)")
        main.append("    for (_gid[0] = 0; _gid[0] < _gsz[0]; _gid[0]++)")
        main.append(f"      {kernel.name}_{i}({', '.join(call)});")
        for name, value in case.args.items():
            if isinstance(value, np.ndarray):
                main.append(f"  fwrite(_b{i}_{name}, sizeof(double), {value.size}, stdout);")
    main.append("  return 0;")
    main.append("}")
    return "\n".join(parts + main) + "\n"


def c_outputs(cases: list[Case], tmp_path) -> list[dict[str, bytes]]:
    """Compile ``cases`` as one C program, run it, and split its output."""
    source = tmp_path / "kernels.c"
    binary = tmp_path / "kernels"
    source.write_text(c_unit(cases))
    compiled = subprocess.run(
        [CC, "-std=c99", "-O0", "-ffp-contract=off", "-o", str(binary), str(source), "-lm"],
        capture_output=True,
        text=True,
    )
    assert compiled.returncode == 0, compiled.stderr
    stdout = subprocess.run([str(binary)], capture_output=True, check=True).stdout
    results, offset = [], 0
    for case in cases:
        buffers = {}
        for name, value in case.args.items():
            if isinstance(value, np.ndarray):
                buffers[name] = stdout[offset : offset + value.nbytes]
                offset += value.nbytes
        results.append(buffers)
    assert offset == len(stdout)
    return results


def assert_c_agrees(cases: list[Case], expected: list, tmp_path) -> list[dict[str, bytes]]:
    """Every case's buffers are byte for byte the ``expected`` interpreter
    ones in C too; returns C's."""
    assert None not in expected
    produced = c_outputs(cases, tmp_path)
    for case, want, got in zip(cases, expected, produced):
        for name in want:
            assert got[name] == want[name], (
                f"{name}: C {np.frombuffer(got[name])} != interpreter "
                f"{np.frombuffer(want[name])}\n{case.source}"
            )
    return produced


def probe_case(statement: str) -> Case:
    args = {"input": PROBE_INPUT, "output": np.zeros_like(PROBE_INPUT)}
    return Case(probe_source(statement), args, PROBE_GLOBAL, PROBE_LOCAL)


def generated_cases(count: int) -> tuple[list[Case], list[dict]]:
    """Up to ``count`` distinct generator kernels the interpreter runs, on
    the first seeded input, and their interpreter outputs."""
    sources: list[str] = []

    @given(source=kernels())
    @settings(max_examples=count, **FUZZ_SETTINGS)
    def collect(source):
        sources.append(source)

    collect()
    args = {
        name: value.array if isinstance(value, Buffer) else value
        for name, value in _bind(SEEDS[0]).items()
    }
    cases, expected = [], []
    for source in dict.fromkeys(sources):
        if "barrier(" in source:
            continue  # sequential work-items cannot honour a barrier
        case = Case(source, args, (SIZE, SIZE), WORK_GROUP)
        outputs = interpreter_outputs(case)
        if outputs is not None:
            cases.append(case)
            expected.append(outputs)
    return cases, expected


class TestCOracle:
    def test_probe_rows_match_c(self, tmp_path):
        """The probe statements give C's values, which ``PROBE_ROWS`` lists."""
        cases = [probe_case(row) for row, _ in PROBE_ROWS]
        produced = assert_c_agrees(cases, [interpreter_outputs(c) for c in cases], tmp_path)
        for (row, values), buffers in zip(PROBE_ROWS, produced):
            np.testing.assert_array_equal(np.frombuffer(buffers["output"]), values, err_msg=row)

    def test_generated_kernels_match_c(self, tmp_path):
        cases, expected = generated_cases(FAST_KERNELS)
        assert len(cases) >= FAST_KERNELS // 2
        assert_c_agrees(cases, expected, tmp_path)

    @pytest.mark.slow
    def test_generated_kernels_match_c_nightly(self, tmp_path):
        cases, expected = generated_cases(NIGHTLY_KERNELS)
        assert len(cases) >= NIGHTLY_KERNELS // 2
        assert_c_agrees(cases, expected, tmp_path)
