"""Mask insertion: the per-lane semantics of divergent control flow.

**Consumes** varying values as ``(lanes,)`` NumPy arrays plus a boolean
active-lane mask.  Every operand has its static C type already — an
``int64`` array for ``int``, a ``float64`` one for ``float`` — since the
lowering prints each conversion the type checker's types call for and
picks each helper by type.  **Guarantees downstream** that every merge,
arithmetic kernel and built-in reproduces the scalar reference
interpreter bit for bit on the active lanes — inactive lanes are never
observable:

* the assignment merge rules (:func:`masked_assign`, :func:`decl_scalar`,
  :func:`merge_parts`) merge divergent values into one lane array of the
  slot's type; every merge returns a new array, since lowered variables
  share lane arrays.  The printer emits a merge only where a later read
  can see the lanes it keeps (``decl_scalar`` only for a declaration
  that shadows an outer one);
* the arithmetic kernels (:func:`varying_int_div`,
  :func:`varying_float_div`, :func:`varying_mod`) implement C semantics
  (truncation toward zero for integer ``/`` and ``%``) and raise
  :class:`~repro.kernellang.errors.InterpreterError` exactly when an
  *active* lane divides by zero; :func:`trunc_div` truncates without that
  scan, for a divisor the range fact proves nonzero; uniform ``/`` and
  ``%`` are the interpreter's own scalar functions;
* :func:`varying_float_to_int` converts float lanes to int as C does and
  raises the interpreter's error for the first active lane no int64
  holds;
* the built-in tables (:data:`VECTOR_BUILTINS`, :data:`INT_BUILTINS`,
  :func:`scalar_map`, :class:`VectorFallback`, :func:`uniform_call`)
  provide mask-aware vector kernels where NumPy rounds identically to libm
  and a per-active-lane scalar fallback everywhere else, with the
  interpreter's exact error wrapping;
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


import numpy as np

from ..builtins import c_round, get_builtin
from ..errors import InterpreterError
from ..interpreter import float_to_int

_FLOAT = np.float64


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


def _vector_max(mask, a, b):
    """Python's ``max`` on floats: ``b`` only where ``b > a``, so a NaN or a
    -0.0 in ``a`` survives (``np.maximum`` would pick the NaN or the +0.0)."""
    return np.where(b > a, b, a)


def _vector_min(mask, a, b):
    """Python's ``min`` on floats: ``b`` only where ``b < a``."""
    return np.where(b < a, b, a)


def _vector_clamp(mask, value, low, high):
    """``min(max(value, low), high)`` on floats."""
    value = np.where(low > value, low, value)
    return np.where(high < value, high, value)


def _vector_sign(mask, x):
    """The interpreter's ``sign``: 0.0 for a NaN and for either zero."""
    s = np.sign(x)
    return np.where(s == s, s, 0.0)


def _vector_select(mask, a, b, c):
    return np.where(truthy(np.asarray(c)), b, a)


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
    "floor": lambda mask, x: np.floor(x),
    "ceil": lambda mask, x: np.ceil(x),
    "round": lambda mask, x: c_round(x),
    "sign": _vector_sign,
    "mad": lambda mask, a, b, c: a * b + c,
    "fma": lambda mask, a, b, c: a * b + c,
    "mix": lambda mask, a, b, t: a + (b - a) * t,
    "select": _vector_select,
    "sqrt": _vector_sqrt,
    "rsqrt": _vector_rsqrt,
    "native_divide": _vector_native_divide,
}

#: Int versions of the selecting built-ins, where ``np.maximum`` and
#: ``np.minimum`` equal Python's ``max`` and ``min``.  They take half the
#: time of the ``np.where`` selects floats need (perfbench serve-distinct
#: clamps only ints).
INT_BUILTINS = {
    "min": lambda mask, a, b: np.minimum(a, b),
    "max": lambda mask, a, b: np.maximum(a, b),
    "clamp": lambda mask, value, low, high: np.minimum(np.maximum(value, low), high),
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
def trunc_div(left, right):
    """Int ``/`` with C truncation toward zero, on a divisor the caller
    knows is nonzero on every active lane (a zero on an inactive lane
    yields a value nothing reads)."""
    quotient = np.floor_divide(left, right)
    remainder = left - quotient * right
    return quotient + ((remainder != 0) & ((left < 0) ^ (right < 0)))


def varying_int_div(left, right, mask):
    """Varying int ``/``: C truncation toward zero, errors on *active* lanes."""
    if np.any(mask & (right == 0)):
        raise InterpreterError("integer division by zero")
    return trunc_div(left, np.where(right == 0, 1, right))


def varying_float_div(left, right, mask):
    """Varying float ``/``, an error where an *active* lane divides by zero."""
    if np.any(mask & (right == 0)):
        raise InterpreterError("division by zero")
    return left / np.where(right == 0, 1.0, right)


def varying_mod(left, right, mask):
    """Varying ``%``: C ``fmod`` semantics, errors on *active* lanes."""
    left = np.asarray(left)
    right = np.asarray(right)
    if np.any(mask & (right == 0)):
        raise InterpreterError("modulo by zero")
    safe = np.where(right == 0, 1, right)
    return np.fmod(left, safe)


#: Floats in ``[_INT64_LO, _INT64_HI)`` truncate to an int64; NaN is in no range.
_INT64_LO = -(2.0**63)
_INT64_HI = 2.0**63


def varying_float_to_int(values, mask):
    """Float lanes converted to int as C truncates them, and an
    :class:`InterpreterError` for the first active lane that no int64 holds
    (NaN, an infinity or a value beyond the range) -- C leaves that
    conversion undefined, and both backends refuse it alike."""
    values = np.asarray(values)
    bad = mask & ~((values >= _INT64_LO) & (values < _INT64_HI))
    if bad.any():
        float_to_int(float(values[bad.argmax()]))
    return values.astype(np.int64)


# ---------------------------------------------------------------------------
# Assignment merge rules
# ---------------------------------------------------------------------------
def masked_assign(existing, value, mask):
    """Masked varying assignment: active lanes take ``value``, which has the
    slot's type already.  The result is a new array (``value`` may be a
    uniform scalar)."""
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


def merge_parts(lanes: int, parts, dtype):
    """Merge the evaluated arms of a varying ternary into one lane array of
    the ternary's type, ``dtype``: an int arm converts to float here."""
    result = np.zeros(lanes, dtype=dtype)
    for mask, value in parts:
        result[mask] = value[mask]
    return result


# ---------------------------------------------------------------------------
# Control-flow bookkeeping
# ---------------------------------------------------------------------------
class FnFlow:
    """Return-lane bookkeeping of one masked-inlined helper call.

    ``value`` starts as the return type's zero (``dtype``), which is what
    a lane that falls off the helper's end returns; every recorded value
    has the return type already.
    """

    __slots__ = ("returned", "value")

    def __init__(self, lanes: int, dtype) -> None:
        self.returned = np.zeros(lanes, dtype=bool)
        self.value = np.zeros(lanes, dtype=dtype)

    def record(self, mask: np.ndarray, value) -> None:
        self.returned = self.returned | mask
        if value is not None:
            self.value = np.where(mask, value, self.value)
