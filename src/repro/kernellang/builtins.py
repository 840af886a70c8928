"""OpenCL built-in functions available to kernels in the subset.

This is the one table of built-in result types.  The type checker reads it
to validate calls and to type them, and both backends follow the types it
records: a *generic* built-in (``min``, ``max``, ``clamp``, ``abs``,
``mad``, ``mix``, and ``select`` for its first two arguments) gives its
operands' common type, as the C macros would, and every other one has a
fixed result type (``float`` for the ``<math.h>`` functions, whose
arguments convert to ``float``).  The interpreter evaluates calls with the
Python implementations; ``round`` rounds half away from zero, as C does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .types import FLOAT, INT, Type


@dataclass(frozen=True)
class BuiltinFunction:
    """Description of one built-in function."""

    name: str
    min_args: int
    max_args: int
    result_type: Type
    impl: Callable
    #: How many leading arguments are operands whose common type is the
    #: result type (0: the result type is ``result_type``).
    generic: int = 0


def _clamp(value, low, high):
    return min(max(value, low), high)


def _mad(a, b, c):
    return a * b + c


def _mix(a, b, t):
    return a + (b - a) * t


def _select(a, b, c):
    return b if c else a


def _sign(x):
    if x > 0:
        return 1.0
    if x < 0:
        return -1.0
    return 0.0


def c_round(x):
    """C's ``round``: half away from zero, on a float or a float array.

    ``trunc`` keeps ``-0.4`` at ``-0.0`` and ``0.49999999999999994`` at 0,
    which ``floor(x + 0.5)`` rounds up to 1.
    """
    whole = np.trunc(x)
    return np.where(np.abs(x - whole) >= 0.5, whole + np.copysign(1.0, x), whole)


_BUILTINS: dict[str, BuiltinFunction] = {}


def _register(
    name: str,
    impl: Callable,
    min_args: int,
    max_args: int | None = None,
    result_type: Type = FLOAT,
    generic: int = 0,
) -> None:
    _BUILTINS[name] = BuiltinFunction(
        name=name,
        min_args=min_args,
        max_args=max_args if max_args is not None else min_args,
        result_type=result_type,
        impl=impl,
        generic=generic,
    )


# Index/geometry built-ins are handled specially by the interpreter (they
# need the work-item context), but they are registered here so the type
# checker accepts them.
for _name in (
    "get_global_id",
    "get_local_id",
    "get_group_id",
    "get_global_size",
    "get_local_size",
    "get_num_groups",
):
    _register(_name, impl=lambda dim=0: 0, min_args=1, result_type=INT)

_register("barrier", impl=lambda flags=0: None, min_args=1, result_type=INT)
_register("mem_fence", impl=lambda flags=0: None, min_args=1, result_type=INT)

# Generic built-ins: the result has the operands' common type.  Float
# min/max/clamp pick the second operand only where it is strictly smaller
# (larger), as Python's min/max do.
_register("min", min, 2, generic=2)
_register("max", max, 2, generic=2)
_register("clamp", _clamp, 3, generic=3)
_register("abs", abs, 1, generic=1)
_register("mad", _mad, 3, generic=3)
_register("mix", _mix, 3, generic=3)
_register("select", _select, 3, generic=2)

# <math.h> functions: float arguments, float result.
_register("fmin", min, 2)
_register("fmax", max, 2)
_register("fabs", abs, 1)
_register("floor", lambda x: float(np.floor(x)), 1)
_register("ceil", lambda x: float(np.ceil(x)), 1)
_register("round", lambda x: float(c_round(x)), 1)
_register("sign", _sign, 1)
_register("fma", _mad, 3)

# Transcendentals.
_register("sqrt", math.sqrt, 1)
_register("rsqrt", lambda x: 1.0 / math.sqrt(x), 1)
_register("exp", math.exp, 1)
_register("log", math.log, 1)
_register("pow", math.pow, 2)
_register("sin", math.sin, 1)
_register("cos", math.cos, 1)
_register("tan", math.tan, 1)
_register("native_divide", lambda a, b: a / b, 2)
_register("hypot", math.hypot, 2)

#: Names that are resolved from the work-item / work-group context.
CONTEXT_BUILTINS = frozenset(
    {
        "get_global_id",
        "get_local_id",
        "get_group_id",
        "get_global_size",
        "get_local_size",
        "get_num_groups",
    }
)

#: Names of synchronisation built-ins.
SYNC_BUILTINS = frozenset({"barrier", "mem_fence"})

#: Pre-defined constants kernels may reference.
BUILTIN_CONSTANTS: dict[str, int] = {
    "CLK_LOCAL_MEM_FENCE": 1,
    "CLK_GLOBAL_MEM_FENCE": 2,
    "FLT_MAX": 3.402823466e38,
    "FLT_MIN": 1.175494351e-38,
    "INT_MAX": 2 ** 31 - 1,
    "INT_MIN": -(2 ** 31),
    "M_PI": math.pi,
    "M_E": math.e,
}


def is_builtin(name: str) -> bool:
    """Whether ``name`` is a built-in function."""
    return name in _BUILTINS


def get_builtin(name: str) -> BuiltinFunction:
    """Return the built-in description for ``name`` (KeyError if unknown)."""
    return _BUILTINS[name]
