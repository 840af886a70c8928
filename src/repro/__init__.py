"""Local memory-aware kernel perforation — reproduction library.

Reproduction of *Local Memory-Aware Kernel Perforation* (Maier, Cosenza,
Juurlink; CGO 2018).  The library contains:

* :mod:`repro.clsim` — an OpenCL-like GPU simulator (functional executor +
  analytical timing model, FirePro-W5100-like device profile);
* :mod:`repro.kernellang` — an OpenCL C subset compiler: parser, type
  checker, interpreter, code generator, analyses and the perforation
  passes;
* :mod:`repro.core` — the paper's contribution: perforation schemes,
  local-memory reconstruction, the kernel perforator, quality metrics,
  the evaluation and sweep result types and Pareto analysis;
* :mod:`repro.baselines` — Paraprox-style output approximation and classic
  loop perforation;
* :mod:`repro.apps` — the six benchmark applications (Gaussian, Inversion,
  Median, Hotspot, Sobel3, Sobel5);
* :mod:`repro.data` — synthetic input generators standing in for the
  USC-SIPI image database and the Rodinia Hotspot inputs;
* :mod:`repro.experiments` — one harness per table/figure of the paper;
* :mod:`repro.api` — the engine API: the
  :class:`~repro.api.engine.PerforationEngine` facade with name resolution,
  result caching and parallel sweeps, and calibration (calibrate, then
  select a configuration for an error budget);
* :mod:`repro.serve` — quality-aware batch serving: micro-batched
  codegen launches, an online perforation controller, a bounded result
  cache and serving metrics (``docs/serving.md``);
* :mod:`repro.autotune` — adaptive multi-fidelity autotuning: a
  declarative search space, seeded strategies (grid, random, hill-climb,
  successive-halving) and a persistent cross-session tuning database
  (``docs/autotuning.md``).
"""

__version__ = "1.1.0"

__all__ = [
    "PerforationEngine",
    "api",
    "apps",
    "autotune",
    "baselines",
    "clsim",
    "core",
    "data",
    "experiments",
    "kernellang",
    "serve",
]


def __getattr__(name: str):
    # Convenience: ``from repro import PerforationEngine`` without making
    # ``import repro`` pull in the whole evaluation stack.
    if name == "PerforationEngine":
        from .api.engine import PerforationEngine

        return PerforationEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
