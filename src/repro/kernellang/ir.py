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
* the **dtypes** ``"i"`` (int64 / Python int) and ``"f"`` (float64 /
  Python float), which are the C types the type checker records on every
  expression (:func:`ctype_dt`): a variable's dtype is its declared type,
  and an expression's is its annotation, so every conversion and every
  int/float choice of a helper is made at lowering time;
* the **predicate** dtype ``"b"`` of a comparison, ``!``, ``&&`` or
  ``||``: a Python bool or a bool lane mask that tests use directly.  The
  printer makes it the int 0/1 of C only where a value is needed;
* :class:`Value` — one lowered value: a payload (the Python code fragment
  the codegen printer emits) tagged with its static kind and dtype;
* :class:`Scope` — the per-function-body symbol table the uniformity pass
  fills in and every consumer reads.

Invariant: kinds only ever go *up* the lattice (uniform may become
varying, never the reverse), which is what makes the uniformity fixpoint
of :mod:`repro.kernellang.passes.uniformity` converge.

See ``docs/ir.md`` for the backend-author contract.
"""

from __future__ import annotations

from .errors import KernelLangError
from .types import Type

#: Value kinds: uniform (one scalar per pass), varying (one value per
#: lane), container (a buffer/tile/array name — not a first-class value).
UNIFORM = "u"
VARYING = "v"
CONTAINER = "c"

#: Static dtypes: int and float.
DT_INT = "i"
DT_FLOAT = "f"
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
    """One lowered value: payload + static kind + dtype (+ range fact).

    ``code`` is the Python expression string the codegen printer emits for
    the value.  ``kind`` is ``"u"``/``"v"``/``"c"``;
    for containers, ``dt`` carries the address space instead of a dtype.
    ``rng`` is the range fact of an int value or predicate -- the pair of
    intervals ``(active, every)`` of :mod:`repro.kernellang.passes.ranges`
    -- or ``None`` when nothing is known.
    """

    __slots__ = ("code", "kind", "dt", "rng")

    def __init__(self, code, kind: str, dt: str, rng=None) -> None:
        self.code = code
        self.kind = kind
        self.dt = dt
        self.rng = rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Value({self.code!r}, kind={self.kind!r}, dt={self.dt!r})"


class Scope:
    """Per-function-body symbol table filled in by the uniformity pass.

    ``kind`` classifies every scalar variable (its dtype is its declared
    type, which the type checker recorded on each use); ``space`` maps
    container names to their address space; ``py`` maps names to the
    emitted Python identifier; ``divdecl`` collects variables first declared under a
    divergent mask, which consumers must pre-bind before entering the
    divergent region.  ``shadowed`` names the variables some declaration
    re-declares while an outer one is in scope (both backends keep one slot
    per name, so the merge rules keep their masks for them), and ``unread``
    the variables nothing reads, whose values are never computed.
    """

    __slots__ = ("kind", "space", "py", "divdecl", "shadowed", "unread")

    def __init__(self) -> None:
        self.kind: dict[str, str] = {}
        self.space: dict[str, str] = {}
        self.py: dict[str, str] = {}
        self.divdecl: set[str] = set()
        self.shadowed: set[str] = set()
        self.unread: set[str] = set()


class ScopeView:
    """Read-only snapshot of a scope for side-effect-free kind queries.

    Loop-shape decisions re-classify sub-expressions speculatively; the
    view copies the mutable kind map so those queries cannot disturb
    the real scope, and sets ``optimistic`` so identifiers that have not
    been declared yet (nested declarations ahead of the fixpoint) default
    to uniform instead of erroring — the fixpoint re-checks once their
    real kind is known (kinds only ever go up).
    """

    __slots__ = ("kind", "space", "py", "divdecl", "optimistic")

    def __init__(self, scope: Scope) -> None:
        self.kind = dict(scope.kind)
        self.space = scope.space
        self.py = scope.py
        self.divdecl = set()
        self.optimistic = True


def join_kind(*kinds: str) -> str:
    """Least upper bound on the kind lattice: varying absorbs uniform."""
    return VARYING if VARYING in kinds else UNIFORM


def ctype_dt(ctype: Type) -> str:
    """The lowering's dtype of a C type: ``"f"`` for ``float``/``double``,
    ``"i"`` for every integer type (and ``bool``)."""
    return DT_FLOAT if ctype.is_float else DT_INT


#: Runtime field backing each context query built-in.
CONTEXT_FIELDS = {
    "get_global_id": "gid",
    "get_local_id": "lid",
    "get_group_id": "grp",
    "get_global_size": "gsz",
    "get_local_size": "lsz",
    "get_num_groups": "ngrp",
}
