"""Mask insertion: the per-lane semantics of divergent control flow.

**Consumes** varying values as ``(lanes,)`` NumPy arrays plus a boolean
active-lane mask.  **Guarantees downstream** that every merge, arithmetic
kernel and built-in reproduces the scalar reference interpreter bit for
bit on the active lanes — inactive lanes are never observable:

* the assignment merge rules (:func:`masked_assign`, :func:`full_assign`,
  :func:`decl_scalar`, :func:`merge_parts`, :func:`int_truncate`) keep a
  slot's C type — a slot that holds an integer truncates an assigned
  float, one that holds a float converts an assigned integer, as the
  interpreter's :func:`~repro.kernellang.interpreter.assign_scalar` does
  for a uniform slot — and merge divergent arms into one lane array;
  every merge returns a new array, since lowered variables share lane
  arrays;
* the arithmetic kernels (:func:`varying_div`, :func:`varying_mod`,
  :func:`uniform_div`, :func:`uniform_mod`) implement C semantics
  (truncation toward zero for integer ``/`` and ``%``) and raise
  :class:`~repro.kernellang.errors.InterpreterError` exactly when an
  *active* lane divides by zero;
* the built-in table (:data:`VECTOR_BUILTINS`, :func:`scalar_map`,
  :class:`VectorFallback`, :func:`uniform_call`) provides mask-aware
  vector kernels where NumPy rounds identically to libm and a per-active-
  lane scalar fallback everywhere else, with the interpreter's exact
  error wrapping;
* :class:`FnFlow` carries the returned-lane bookkeeping of masked-inlined
  helpers.

The codegen backend (:mod:`repro.kernellang.codegen`) threads the mask
through ``if``/``for``/``while``/``do-while`` (including
``break``/``continue``/``return``) in the source it prints, narrowing it
by each test's predicate (a bool lane mask), and the
printed source calls back into these functions by name at run time —
which is what keeps its outputs bit-identical to the interpreter.
"""

from __future__ import annotations

import math

import numpy as np

from ..builtins import get_builtin
from ..errors import InterpreterError

_INT = np.int64
_FLOAT = np.float64


def _is_int(array: np.ndarray) -> bool:
    return array.dtype.kind in "iu"


def truthy(array: np.ndarray) -> np.ndarray:
    """Per-lane C truthiness: nonzero is true."""
    return array != 0


# ---------------------------------------------------------------------------
# Mask-aware built-ins
# ---------------------------------------------------------------------------
def scalar_map(fn):
    """Apply a scalar libm function per active lane (bit-exact fallback)."""

    def apply(mask, *args):
        out = np.zeros(mask.shape[0], dtype=_FLOAT)
        idx = np.flatnonzero(mask)
        lanes = [np.asarray(a, dtype=_FLOAT)[idx] for a in args]
        out[idx] = [fn(*vals) for vals in zip(*lanes)]
        return out

    return apply


def _int_lanes(*args) -> bool:
    """Whether the operands are all ints, where ``np.maximum``/``np.minimum``
    equal Python's ``max``/``min``.  They take half the time of the
    ``np.where`` selects float operands need, which on a 2-CPU machine cost
    8% of perfbench serve-distinct throughput (its clamps are all on ints)."""
    return np.result_type(*args).kind in "iu"


def _vector_max(mask, a, b):
    """Python's ``max``: ``b`` only where ``b > a``, so a NaN or a -0.0 in
    ``a`` survives (``np.maximum`` would pick the NaN or the +0.0)."""
    return np.maximum(a, b) if _int_lanes(a, b) else np.where(b > a, b, a)


def _vector_min(mask, a, b):
    """Python's ``min``: ``b`` only where ``b < a`` (see :func:`_vector_max`)."""
    return np.minimum(a, b) if _int_lanes(a, b) else np.where(b < a, b, a)


def _vector_clamp(mask, value, low, high):
    """``min(max(value, low), high)``, with one dtype check per call."""
    if _int_lanes(value, low, high):
        return np.minimum(np.maximum(value, low), high)
    value = np.where(low > value, low, value)
    return np.where(high < value, high, value)


def _vector_select(mask, a, b, c):
    return np.where(truthy(np.asarray(c)), b, a)


def _int_result(fn):
    """Wrap a float-returning ufunc whose interpreter twin returns ``int``."""

    def apply(mask, x):
        return fn(x).astype(_INT)

    return apply


def _vector_sqrt(mask, x):
    x = np.asarray(x, dtype=_FLOAT)
    if np.any(mask & (x < 0)):
        # The scalar interpreter raises through math.sqrt; don't let lanes
        # silently produce NaN where the reference backend errors out.
        raise InterpreterError("built-in 'sqrt' failed: math domain error")
    return np.sqrt(np.where(mask, x, 0.0))


def _vector_rsqrt(mask, x):
    x = np.asarray(x, dtype=_FLOAT)
    if np.any(mask & (x < 0)):
        raise InterpreterError("built-in 'rsqrt' failed: math domain error")
    if np.any(mask & (x == 0)):
        raise InterpreterError("built-in 'rsqrt' failed: float division by zero")
    return 1.0 / np.sqrt(np.where(mask, x, 1.0))


def _vector_native_divide(mask, a, b):
    b = np.asarray(b)
    if np.any(mask & (b == 0)):
        raise InterpreterError("built-in 'native_divide' failed: float division by zero")
    return np.asarray(a, dtype=_FLOAT) / np.where(b == 0, 1.0, b)


#: Vector implementations of the built-ins; signature ``fn(mask, *args)``.
#: Anything missing here falls back to the scalar implementation per lane.
VECTOR_BUILTINS = {
    "min": _vector_min,
    "max": _vector_max,
    "fmin": _vector_min,
    "fmax": _vector_max,
    "clamp": _vector_clamp,
    "abs": lambda mask, x: np.abs(x),
    "fabs": lambda mask, x: np.abs(x),
    "floor": _int_result(np.floor),
    "ceil": _int_result(np.ceil),
    "round": _int_result(np.round),
    "sign": lambda mask, x: np.sign(x).astype(_FLOAT),
    "mad": lambda mask, a, b, c: a * b + c,
    "fma": lambda mask, a, b, c: a * b + c,
    "mix": lambda mask, a, b, t: a + (b - a) * t,
    "select": _vector_select,
    "sqrt": _vector_sqrt,
    "rsqrt": _vector_rsqrt,
    "native_divide": _vector_native_divide,
}


def builtin_impl(name: str):
    """Resolve a built-in's scalar implementation (uniform call path)."""
    return get_builtin(name).impl


def uniform_call(name: str, impl, *args):
    """Uniform built-in call with the interpreter's error wrapping."""
    try:
        return impl(*args)
    except Exception as exc:
        raise InterpreterError(f"built-in {name!r} failed: {exc}") from exc


class VectorFallback:
    """Per-active-lane scalar fallback for built-ins without a vector kernel."""

    __slots__ = ("name", "apply")

    def __init__(self, name: str) -> None:
        self.name = name
        self.apply = scalar_map(get_builtin(name).impl)

    def __call__(self, mask, *args):
        try:
            return self.apply(mask, *args)
        except Exception as exc:
            raise InterpreterError(f"built-in {self.name!r} failed: {exc}") from exc


# ---------------------------------------------------------------------------
# C-semantics arithmetic kernels
# ---------------------------------------------------------------------------
def uniform_div(left, right):
    """Uniform ``/`` with the scalar interpreter's exact semantics."""
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            raise InterpreterError("integer division by zero")
        quotient = left // right
        if left % right != 0 and (left < 0) != (right < 0):
            quotient += 1
        return quotient
    if right == 0:
        raise InterpreterError("division by zero")
    return left / right


def uniform_mod(left, right):
    """Uniform ``%`` with the scalar interpreter's exact semantics."""
    if right == 0:
        raise InterpreterError("modulo by zero")
    if isinstance(left, int) and isinstance(right, int):
        return int(math.fmod(left, right))
    return math.fmod(left, right)


def varying_div(left, right, mask):
    """Varying ``/``: C truncation toward zero, errors on *active* lanes."""
    left = np.asarray(left)
    right = np.asarray(right)
    int_int = _is_int(left) and _is_int(right)
    if np.any(mask & (right == 0)):
        if int_int:
            raise InterpreterError("integer division by zero")
        raise InterpreterError("division by zero")
    if _is_int(right):
        safe = np.where(right == 0, 1, right)
    else:
        safe = np.where(right == 0, 1.0, right)
    if int_int:
        quotient = np.floor_divide(left, safe)
        remainder = left - quotient * safe
        return quotient + ((remainder != 0) & ((left < 0) ^ (safe < 0)))
    return left / safe


def varying_mod(left, right, mask):
    """Varying ``%``: C ``fmod`` semantics, errors on *active* lanes."""
    left = np.asarray(left)
    right = np.asarray(right)
    if np.any(mask & (right == 0)):
        raise InterpreterError("modulo by zero")
    safe = np.where(right == 0, 1, right)
    return np.fmod(left, safe)


# ---------------------------------------------------------------------------
# Assignment merge rules
# ---------------------------------------------------------------------------
def int_truncate(value):
    """Varying store into an int-typed slot: truncate unless already int."""
    value = np.asarray(value)
    return value if _is_int(value) else value.astype(_INT)


def full_assign(existing, value):
    """Full-mask varying assignment that keeps the slot's C type."""
    value = np.asarray(value)
    if _is_int(existing) != _is_int(value):
        return value.astype(existing.dtype)
    return value


def masked_assign(existing, value, mask):
    """Masked varying assignment: active lanes take ``value``, dtype sticks.

    Follows C (and the scalar interpreter): assigning a float to an
    integer slot truncates toward zero, and the slot stays integer.  The
    result is a new array (``value`` may be a uniform scalar).
    """
    if _is_int(existing):
        value = int_truncate(value)
    return np.where(mask, value, existing)


def decl_scalar(existing, value, mask):
    """Scalar re-declaration under a divergent mask.

    Only the active lanes observe the fresh value; inactive lanes keep
    what the slot held before the divergent region was entered.
    """
    value = np.asarray(value)
    if isinstance(existing, np.ndarray) and not mask.all():
        return masked_assign(existing, value, mask)
    return value


def merge_parts(lanes: int, parts):
    """Merge the evaluated arms of a varying ternary into one lane array."""
    dtype = np.result_type(*(np.asarray(v).dtype for _, v in parts))
    result = np.zeros(lanes, dtype=dtype)
    for mask, value in parts:
        result[mask] = np.asarray(value, dtype=dtype)[mask]
    return result


# ---------------------------------------------------------------------------
# Control-flow bookkeeping
# ---------------------------------------------------------------------------
class FnFlow:
    """Return-lane bookkeeping of one masked-inlined helper call."""

    __slots__ = ("lanes", "returned", "value")

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        self.returned = np.zeros(lanes, dtype=bool)
        self.value = None

    def record(self, mask: np.ndarray, value) -> None:
        self.returned = self.returned | mask
        if value is None:
            return
        if self.value is None:
            self.value = np.zeros(self.lanes, dtype=_INT)
        self.value = np.where(mask, value, self.value)

    def result(self):
        if self.value is None:
            return np.zeros(self.lanes, dtype=_INT)
        return self.value
