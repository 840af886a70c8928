"""Range fact: static integer intervals of the lowering's int values.

**Consumes** the values the codegen printer emits.  An *interval* is a
``(lo, hi)`` pair of Python ints, where ``None`` is an unbounded side and
:data:`TOP` knows nothing; a bound beyond ``int64`` counts as unbounded,
so a proved range holds alike for the interpreter's Python ints and for
codegen's ``int64`` lanes (neither can have wrapped).  A *fact* is the pair
``(active, every)`` of one int value at one program point:

* ``active`` bounds the value on the lanes that are active there -- the
  work-items that execute that point, so it is an ordinary range of the C
  program.  It decides whether a check can fire: a bounds check, a
  zero-divisor scan, a clamp, a comparison;
* ``every`` bounds the value in *every* lane's slot, including the stale
  or never-masked values inactive lanes carry.  It decides whether a lane
  array may index a flat array with no mask arithmetic.  ``every`` always
  contains ``active``; at a point where every lane of the pass is active
  (no divergence) the two are equal.

An *environment* maps emitted variable names to facts; a name it lacks is
unbounded, and ``None`` is an unreachable point (no lane gets there).
The functions here are the interval arithmetic (C truncating ``/`` and
``%``, ``min``/``max``/``clamp``), the lattice operations (join, meet,
widening) and the decisions the printer draws from them.  Nothing here
reads the AST: :class:`~repro.kernellang.codegen._Emitter` carries the
environment through emission, and the uniformity analysis supplies the
syntactic facts (counted loops, shadowed and unread variables).
"""

from __future__ import annotations

#: Unbounded on both sides.
TOP = (None, None)

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def point(value: int) -> tuple:
    return (value, value)


def _fit(lo, hi) -> tuple:
    """``(lo, hi)`` with any bound outside int64 made unbounded."""
    if lo is not None and not _INT64_MIN <= lo <= _INT64_MAX:
        lo = None
    if hi is not None and not _INT64_MIN <= hi <= _INT64_MAX:
        hi = None
    return (lo, hi)


def bounded(iv) -> bool:
    return iv[0] is not None and iv[1] is not None


def constant(iv):
    """The one value of a single-point interval, else ``None``."""
    return iv[0] if iv[0] is not None and iv[0] == iv[1] else None


def within(iv, lo: int, hi: int) -> bool:
    """Whether every value of ``iv`` lies in ``[lo, hi]``."""
    return iv[0] is not None and iv[1] is not None and lo <= iv[0] and iv[1] <= hi


def excludes_zero(iv) -> bool:
    return (iv[0] is not None and iv[0] > 0) or (iv[1] is not None and iv[1] < 0)


def nonnegative(iv) -> bool:
    return iv[0] is not None and iv[0] >= 0


# -- lattice ----------------------------------------------------------------
def join(a, b) -> tuple:
    lo = None if a[0] is None or b[0] is None else min(a[0], b[0])
    hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
    return (lo, hi)


def meet(a, b):
    """The intersection, or ``None`` when it is empty."""
    lo = a[0] if b[0] is None else b[0] if a[0] is None else max(a[0], b[0])
    hi = a[1] if b[1] is None else b[1] if a[1] is None else min(a[1], b[1])
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def widen(old, new) -> tuple:
    """``new`` with every bound that moved since ``old`` made unbounded."""
    return (new[0] if new[0] == old[0] else None, new[1] if new[1] == old[1] else None)


def env_join(a, b):
    """Join of two environments (``None`` is unreachable): a name bounded on
    only one side of the join is unbounded after it."""
    if a is None:
        return None if b is None else dict(b)
    if b is None:
        return dict(a)
    out = {}
    for name, (active, every) in a.items():
        other = b.get(name)
        if other is not None:
            out[name] = (join(active, other[0]), join(every, other[1]))
    return out


def env_widen(old, new):
    if old is None or new is None:
        return new
    out = {}
    for name, (active, every) in new.items():
        before = old.get(name)
        if before is not None:
            out[name] = (widen(before[0], active), widen(before[1], every))
    return out


# -- arithmetic ---------------------------------------------------------------
def add(a, b) -> tuple:
    lo = None if a[0] is None or b[0] is None else a[0] + b[0]
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return _fit(lo, hi)


def neg(a) -> tuple:
    return _fit(None if a[1] is None else -a[1], None if a[0] is None else -a[0])


def sub(a, b) -> tuple:
    return add(a, neg(b))


def mul(a, b) -> tuple:
    for x, y in ((a, b), (b, a)):
        c = constant(y)
        if c is not None and not bounded(x):
            if c == 0:
                return (0, 0)
            lo = None if x[0] is None else x[0] * c
            hi = None if x[1] is None else x[1] * c
            return _fit(lo, hi) if c > 0 else _fit(hi, lo)
    if not (bounded(a) and bounded(b)):
        return TOP
    corners = [p * q for p in a for q in b]
    return _fit(min(corners), max(corners))


def _tdiv(a: int, b: int) -> int:
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def div(a, b) -> tuple:
    """C's truncating ``/`` (the divisor excludes zero, else unbounded)."""
    if not (excludes_zero(b) and bounded(b)):
        return TOP
    if bounded(a):
        corners = [_tdiv(p, q) for p in a for q in b]
        return _fit(min(corners), max(corners))
    # Truncation is monotone in the dividend; the quotient's magnitude is
    # at most the dividend's.
    d = constant(b)
    if d is None:
        return TOP
    lo = None if a[0] is None else _tdiv(a[0], d)
    hi = None if a[1] is None else _tdiv(a[1], d)
    return _fit(lo, hi) if d > 0 else _fit(hi, lo)


def mod(a, b) -> tuple:
    """C's ``%``: the remainder takes the dividend's sign and is smaller
    than the divisor in magnitude."""
    if not (excludes_zero(b) and bounded(b)):
        return TOP
    m = max(abs(b[0]), abs(b[1])) - 1
    if nonnegative(a):
        return a if a[1] is not None and a[1] <= m else (0, m)
    if a[1] is not None and a[1] <= 0:
        return a if a[0] is not None and a[0] >= -m else (-m, 0)
    return (-m, m)


def minimum(a, b) -> tuple:
    lo = None if a[0] is None or b[0] is None else min(a[0], b[0])
    his = [h for h in (a[1], b[1]) if h is not None]
    return (lo, min(his) if his else None)


def maximum(a, b) -> tuple:
    los = [lo for lo in (a[0], b[0]) if lo is not None]
    hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
    return (max(los) if los else None, hi)


def magnitude(a) -> tuple:
    """``abs``."""
    if nonnegative(a):
        return a
    if a[1] is not None and a[1] <= 0:
        return neg(a)
    if bounded(a):
        return (0, max(-a[0], a[1]))
    return (0, None)


# -- decisions ------------------------------------------------------------
def compare(op: str, a, b):
    """``a op b`` decided for every pair of values of the intervals:
    ``True``, ``False`` or ``None`` (undecided)."""
    if op in (">", ">="):
        op, a, b = ("<" if op == ">" else "<="), b, a
    if op == "<":
        if a[1] is not None and b[0] is not None and a[1] < b[0]:
            return True
        if a[0] is not None and b[1] is not None and a[0] >= b[1]:
            return False
        return None
    if op == "<=":
        if a[1] is not None and b[0] is not None and a[1] <= b[0]:
            return True
        if a[0] is not None and b[1] is not None and a[0] > b[1]:
            return False
        return None
    if meet(a, b) is None:
        return op == "!="
    c = constant(a)
    if c is not None and c == constant(b):
        return op == "=="
    return None


def narrow(iv, op: str, other):
    """The values of ``iv`` for which ``iv op other`` can hold, or ``None``."""
    lo, hi = other
    if op == "<":
        bound = (None, None if hi is None else hi - 1)
    elif op == "<=":
        bound = (None, hi)
    elif op == ">":
        bound = (None if lo is None else lo + 1, None)
    elif op == ">=":
        bound = (lo, None)
    elif op == "==":
        bound = other
    else:
        c = constant(other)
        if c is None:
            return iv
        if iv[0] == c:
            iv = (c + 1, iv[1])
        if iv[1] == c:
            iv = (iv[0], c - 1)
        return iv if iv[0] is None or iv[1] is None or iv[0] <= iv[1] else None
    return meet(iv, bound)


#: The operator whose truth is the negation of each comparison's.
NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
#: The comparison with its operands swapped.
SWAPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def trips(start: int, limit: int, step: int) -> int:
    """Trips of ``for (v = start; v < limit; v += step)`` (``step > 0``)."""
    return 0 if start >= limit else -(-(limit - start) // step)
