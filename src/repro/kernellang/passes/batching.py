"""Batching transform: route every lane of a stacked pass to its request and group.

**Consumes** one *pass* of a launch over ``batch`` compatible requests.
The launch has ``batch * groups`` slots: slot ``s`` is work group
``s % groups`` (in :meth:`~repro.clsim.ndrange.NDRange.group_ids` order)
of request ``s // groups``, and a pass runs a contiguous range of slots
with slot ``first + k`` occupying lanes
``[k * group_size, (k + 1) * group_size)``.  With ``batch > 1`` every
pointer argument is a :class:`~repro.clsim.memory.SegmentedBuffer`.
**Guarantees downstream** bit-identity with running every work group of
every request on its own: lanes of different requests or groups never
observe each other's private or local data, because

* :func:`route_lanes` fixes the lane→(request, group, local id) routing,
  from which the work-item ids and each view's per-lane base offset are
  derived;
* :func:`global_view` gives request ``r``'s lanes the base offset
  ``r * segment_elements`` and checks bounds against the segment, so
  per-request indexing and error behaviour are those of an individual
  launch; it is the single validation point of the SegmentedBuffer
  contract;
* :func:`local_view` gives each slot its own ``length``-element tile of
  one shared allocation (pass slot ``k`` owns ``[k * length,
  (k + 1) * length)``), so staging never mixes groups or requests.

Work groups of one launch are unordered, as in OpenCL: a pass runs its
groups statement by statement side by side, so groups must not
communicate through global memory within a launch (none of the bundled
kernels reads the buffer it writes).  Access counters still record one
access per active lane, which makes a stacked launch's
:class:`~repro.clsim.executor.ExecutionStats` equal the sum over its
groups and requests.
"""

from __future__ import annotations

import math

import numpy as np

from ...clsim.memory import SegmentedBuffer
from ..errors import InterpreterError
from .memory import LaneView

_INT = np.int64
_FLOAT = np.float64


def route_lanes(first: int, count: int, num_groups, local_size):
    """Per-lane ids of the pass over slots ``[first, first + count)``.

    Returns ``(request, lid, grp)``: the request index of every lane, and
    per dimension its local id and work-group id.
    """
    group_size = math.prod(local_size)
    slots = np.arange(first, first + count, dtype=_INT)
    request = np.repeat(slots // math.prod(num_groups), group_size)
    linear = slots % math.prod(num_groups)
    lid, grp = [], []
    inner = 1
    for extent, groups in zip(local_size, num_groups):
        period = np.repeat(np.arange(extent, dtype=_INT), inner)
        lid.append(np.tile(period, count * group_size // period.size))
        grp.append(np.repeat(linear % groups, group_size))
        linear = linear // groups
        inner *= extent
    return request, tuple(lid), tuple(grp)


def global_view(buffer, batch: int, request: np.ndarray) -> LaneView:
    """The pass's view of one pointer argument.

    A single launch addresses its buffer directly; a batch of ``batch``
    requests must bind a ``batch``-segment
    :class:`~repro.clsim.memory.SegmentedBuffer`, and each lane is offset
    into its request's segment.
    """
    what = f"global buffer {buffer.name!r}"
    flat = buffer.array.reshape(-1)
    if batch == 1:
        return LaneView(flat, buffer, flat.size, None, request.size, what)
    if not isinstance(buffer, SegmentedBuffer) or buffer.batch != batch:
        raise InterpreterError(
            f"batched launch requires every pointer argument to be a "
            f"SegmentedBuffer with {batch} segments, got {buffer!r}"
        )
    n = buffer.segment_elements
    return LaneView(flat, buffer, n, request * n, request.size, what)


def local_view(mem, name: str, length: int, count: int, group_size: int) -> LaneView:
    """One ``length``-element tile per pass slot, in one allocation."""
    tile = mem.allocate(name, (count * length,), dtype=_FLOAT)
    base = None
    if count > 1:
        base = np.repeat(np.arange(0, count * length, length, dtype=_INT), group_size)
    return LaneView(tile, mem, length, base, count * group_size, f"local array {name!r}")
