"""Typed value model of the kernellang lowering — the shared kernel IR.

The compiled backend executes kernels *lane-wise*: all work-items of
every work group of a launch advance together in stacked passes, and
each kernel value is either **uniform**
(one Python scalar shared by every lane) or **varying** (a ``(lanes,)``
NumPy array).  This module defines that typed value model — the
vocabulary the pass pipeline (:mod:`repro.kernellang.passes`) and the
codegen printer (:mod:`repro.kernellang.codegen`) talk to each other in:

* the **kind** lattice ``"u"`` (uniform) < ``"v"`` (varying), plus ``"c"``
  for container-valued names (buffers, tiles, arrays) which are never
  first-class values;
* the **dtype** lattice ``"i"`` (int64 / Python int) and ``"f"`` (float64 /
  Python float), with ``"x"`` for statically unknown (resolved dynamically,
  with the scalar interpreter's truncation rules);
* the **predicate** dtype ``"b"`` of a comparison, ``!``, ``&&`` or
  ``||``: a Python bool or a bool lane mask that tests use directly.  The
  printer makes it the int 0/1 of C only where a value is needed, so the
  analysis (:func:`binop_dtype`) and every variable see an int;
* :class:`Value` — one lowered value: a payload (the Python code fragment
  the codegen printer emits) tagged with its static kind and dtype;
* :class:`Scope` — the per-function-body symbol table the uniformity pass
  fills in and every consumer reads;
* the dtype transfer functions (:func:`join_kind`, :func:`promote_dt`,
  :func:`select_dt`, :func:`binop_dtype`, :func:`builtin_dt`) and the
  built-in result-dtype table (:data:`BUILTIN_RESULT_DT`), which encode
  the scalar interpreter's arithmetic semantics once.

Invariant: kinds and dtypes only ever go *up* the lattice (uniform may
become varying, ``i``/``f`` may become ``x`` — never the reverse), which is
what makes the uniformity fixpoint of
:mod:`repro.kernellang.passes.uniformity` converge.

See ``docs/ir.md`` for the backend-author contract.
"""

from __future__ import annotations

from .errors import KernelLangError

#: Value kinds: uniform (one scalar per pass), varying (one value per
#: lane), container (a buffer/tile/array name — not a first-class value).
UNIFORM = "u"
VARYING = "v"
CONTAINER = "c"

#: Static dtypes: int, float, unknown (resolved dynamically at run time).
DT_INT = "i"
DT_FLOAT = "f"
DT_ANY = "x"
#: A lowered truth value (never a variable's dtype; its C value is int).
DT_BOOL = "b"
#: Operators whose result is a predicate.
PREDICATE_OPS = frozenset(("<", ">", "<=", ">=", "==", "!=", "&&", "||"))

#: Container address spaces (the ``dt`` slot of a container-kinded Value).
SPACE_GLOBAL = "global"
SPACE_LOCAL = "local"
SPACE_PRIVATE = "private"
SPACE_CONSTANT = "constant"


class LoweringError(KernelLangError):
    """The pass pipeline cannot specialize this program.

    Raised at lowering time, never mid-execution: the codegen backend runs
    such a launch on the reference interpreter before any lane has run.
    """


class Value:
    """One lowered value: payload + static kind + dtype.

    ``code`` is the Python expression string the codegen printer emits for
    the value.  ``kind`` is ``"u"``/``"v"``/``"c"``;
    for containers, ``dt`` carries the address space instead of a dtype.
    """

    __slots__ = ("code", "kind", "dt")

    def __init__(self, code, kind: str, dt: str) -> None:
        self.code = code
        self.kind = kind
        self.dt = dt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Value({self.code!r}, kind={self.kind!r}, dt={self.dt!r})"


class Scope:
    """Per-function-body symbol table filled in by the uniformity pass.

    ``kind``/``dt`` classify every scalar variable; ``space`` maps
    container names to their address space; ``py`` maps names to the
    emitted Python identifier; ``divdecl`` collects variables first declared under a
    divergent mask, which consumers must pre-bind before entering the
    divergent region.
    """

    __slots__ = ("kind", "dt", "space", "py", "divdecl")

    def __init__(self) -> None:
        self.kind: dict[str, str] = {}
        self.dt: dict[str, str] = {}
        self.space: dict[str, str] = {}
        self.py: dict[str, str] = {}
        self.divdecl: set[str] = set()


class ScopeView:
    """Read-only snapshot of a scope for side-effect-free kind queries.

    Loop-shape decisions re-classify sub-expressions speculatively; the
    view copies the mutable kind/dt maps so those queries cannot disturb
    the real scope, and sets ``optimistic`` so identifiers that have not
    been declared yet (nested declarations ahead of the fixpoint) default
    to uniform instead of erroring — the fixpoint re-checks once their
    real kind is known (kinds only ever go up).
    """

    __slots__ = ("kind", "dt", "space", "py", "divdecl", "optimistic")

    def __init__(self, scope: Scope) -> None:
        self.kind = dict(scope.kind)
        self.dt = dict(scope.dt)
        self.space = scope.space
        self.py = scope.py
        self.divdecl = set()
        self.optimistic = True


def join_kind(*kinds: str) -> str:
    """Least upper bound on the kind lattice: varying absorbs uniform."""
    return VARYING if VARYING in kinds else UNIFORM


def promote_dt(*dts: str) -> str:
    """Least upper bound on the dtype lattice (``x`` absorbs everything)."""
    if DT_ANY in dts:
        return DT_ANY
    return DT_FLOAT if DT_FLOAT in dts else DT_INT


def select_dt(*dts: str) -> str:
    """Dtype of a value that is one of several operands, unchanged: a ``?:``
    arm or the operand ``min``/``max``/``clamp``/``select`` picks.  The
    interpreter keeps the picked operand's Python type, so an int and a
    float operand give ``x``, not ``f``."""
    return dts[0] if len(set(dts)) == 1 else DT_ANY


def builtin_dt(name: str, dts) -> str:
    """Static result dtype of the built-in ``name`` given its argument dtypes."""
    cls = BUILTIN_RESULT_DT.get(name, DT_ANY)
    if cls == "p":
        return promote_dt(*dts) if dts else DT_INT
    if cls == "s":
        # select's third argument is its test, not an operand
        return select_dt(*(dts[:2] if name == "select" else dts))
    return cls


def binop_dtype(op: str, ldt: str, rdt: str) -> str:
    """Static result dtype of a binary operator under interpreter semantics.

    Comparisons, logical and bitwise operators always yield int; ``/`` and
    ``%`` yield int only for int/int operands (C semantics); the arithmetic
    operators promote.
    """
    if op in PREDICATE_OPS or op in ("&", "|", "^", "<<", ">>"):
        return DT_INT
    if op == "/":
        if ldt == DT_INT and rdt == DT_INT:
            return DT_INT
        return DT_ANY if DT_ANY in (ldt, rdt) else DT_FLOAT
    if op == "%":
        if ldt == DT_INT and rdt == DT_INT:
            return DT_INT
        return DT_ANY if DT_ANY in (ldt, rdt) else DT_FLOAT
    return promote_dt(ldt, rdt)


#: Result dtype class of each built-in under the interpreter's scalar
#: semantics: 'p' promotes from the argument dtypes, 's' yields one operand
#: unchanged (:func:`select_dt`), 'f' always yields float, 'i' always int.
BUILTIN_RESULT_DT = {
    "min": "s",
    "max": "s",
    "fmin": "s",
    "fmax": "s",
    "clamp": "s",
    "abs": "p",
    "fabs": "p",
    "mad": "p",
    "fma": "p",
    "mix": "p",
    "select": "s",
    "sign": "f",
    "sqrt": "f",
    "rsqrt": "f",
    "exp": "f",
    "log": "f",
    "pow": "f",
    "sin": "f",
    "cos": "f",
    "tan": "f",
    "native_divide": "f",
    "hypot": "f",
    "floor": "i",
    "ceil": "i",
    "round": "i",
}

#: Runtime field backing each context query built-in.
CONTEXT_FIELDS = {
    "get_global_id": "gid",
    "get_local_id": "lid",
    "get_group_id": "grp",
    "get_global_size": "gsz",
    "get_local_size": "lsz",
    "get_num_groups": "ngrp",
}
