"""OpenCL built-in functions available to kernels in the subset.

The type checker uses the table to validate calls, and the interpreter
uses the Python implementations to evaluate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .types import FLOAT, INT, Type


@dataclass(frozen=True)
class BuiltinFunction:
    """Description of one built-in function."""

    name: str
    min_args: int
    max_args: int
    result_type: Type
    impl: Callable


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


_BUILTINS: dict[str, BuiltinFunction] = {}


def _register(
    name: str,
    impl: Callable,
    min_args: int,
    max_args: int | None = None,
    result_type: Type = FLOAT,
) -> None:
    _BUILTINS[name] = BuiltinFunction(
        name=name,
        min_args=min_args,
        max_args=max_args if max_args is not None else min_args,
        result_type=result_type,
        impl=impl,
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

# Arithmetic / common built-ins.
_register("min", min, 2, result_type=FLOAT)
_register("max", max, 2, result_type=FLOAT)
_register("fmin", min, 2, result_type=FLOAT)
_register("fmax", max, 2, result_type=FLOAT)
_register("clamp", _clamp, 3, result_type=FLOAT)
_register("abs", abs, 1, result_type=INT)
_register("fabs", abs, 1, result_type=FLOAT)
_register("floor", math.floor, 1, result_type=FLOAT)
_register("ceil", math.ceil, 1, result_type=FLOAT)
_register("round", round, 1, result_type=FLOAT)
_register("sign", _sign, 1, result_type=FLOAT)
_register("mad", _mad, 3, result_type=FLOAT)
_register("fma", _mad, 3, result_type=FLOAT)
_register("mix", _mix, 3, result_type=FLOAT)
_register("select", _select, 3, result_type=FLOAT)

# Transcendentals.
_register("sqrt", math.sqrt, 1, result_type=FLOAT)
_register("rsqrt", lambda x: 1.0 / math.sqrt(x), 1, result_type=FLOAT)
_register("exp", math.exp, 1, result_type=FLOAT)
_register("log", math.log, 1, result_type=FLOAT)
_register("pow", math.pow, 2, result_type=FLOAT)
_register("sin", math.sin, 1, result_type=FLOAT)
_register("cos", math.cos, 1, result_type=FLOAT)
_register("tan", math.tan, 1, result_type=FLOAT)
_register("native_divide", lambda a, b: a / b, 2, result_type=FLOAT)
_register("hypot", math.hypot, 2, result_type=FLOAT)

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


def builtin_names() -> list[str]:
    """Sorted list of all built-in function names."""
    return sorted(_BUILTINS)
