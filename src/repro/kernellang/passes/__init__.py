"""The kernellang pass pipeline — the lowering semantics of the compiled backend.

The codegen backend specializes one kernel source into many approximate
variants; this package holds the lowering semantics it prints, so a new
backend consumes the passes instead of re-implementing mask algebra and
batching from scratch (see ``docs/ir.md`` for the backend-author path):

* :mod:`~repro.kernellang.passes.uniformity` — classifies every variable
  as uniform or varying and decides which loops need mask machinery (the
  specialization analysis of the codegen backend);
* :mod:`~repro.kernellang.passes.ranges` — the range fact: static integer
  intervals of int values (on the active lanes and in every lane's slot)
  from which the lowering drops the checks, masks and merges that cannot
  matter;
* :mod:`~repro.kernellang.passes.masking` — the mask-insertion semantics
  for divergent control flow: the per-lane mask algebra, merge rules,
  C-semantics arithmetic kernels and mask-aware built-ins the lowered
  source calls at run time;
* :mod:`~repro.kernellang.passes.memory` — lane-indexed views of global
  buffers, local tiles, private and constant arrays, with the exact
  bounds-check and ``ExecutionStats`` counting contract;
* :mod:`~repro.kernellang.passes.batching` — the batching transform:
  routes every lane of a stacked pass to its (request, work group) and
  builds the lane-offset views that make one pass over many groups and
  requests bit-identical to running each group on its own.

The typed value model the passes operate on (kinds, dtypes,
:class:`~repro.kernellang.ir.Scope`) lives in :mod:`repro.kernellang.ir`.
"""

from .uniformity import UniformityAnalysis, classify_kernel

__all__ = [
    "UniformityAnalysis",
    "classify_kernel",
]
