"""``repro.autotune`` — adaptive multi-fidelity autotuning.

The paper finds good perforation configurations by exhaustively sweeping
schemes x reconstruction x work-group sizes and keeping the Pareto front
(Sections 6.3–6.4).  This package turns that into a first-class subsystem:

* :mod:`repro.autotune.space` — a declarative search-space model over the
  full scheme x perforation-rate x reconstruction x work-group product,
  strictly larger than the paper's hand-picked ladder;
* :mod:`repro.autotune.strategies` — pluggable seeded strategies (grid,
  random, local hill-climb, successive-halving with multi-fidelity
  screening on downscaled inputs), all driving evaluations through the
  :class:`~repro.api.engine.PerforationEngine` worker pool and caches;
* :mod:`repro.autotune.db` — a persistent cross-session tuning database
  keyed by (app, device, input fingerprint, space version, strategy, seed);
* :mod:`repro.autotune.tuner` — the :class:`Tuner` facade producing
  incremental Pareto fronts and budget-indexed ladders.

.. code-block:: python

    from repro.api import PerforationEngine
    from repro.autotune import Tuner

    engine = PerforationEngine(workers="auto")
    tuner = Tuner(engine, seed=0, db="~/.cache/repro-tuning")
    result = tuner.tune("gaussian", image, strategy="successive-halving")
    front = result.front()                       # Pareto-optimal configs
    config = result.best_for_budget(0.01)        # fastest within 1% error

See ``docs/autotuning.md`` for the full guide.
"""

from __future__ import annotations

from .db import TuningDB, default_db, resolve_db
from .space import SearchSpace, default_space
from .strategies import (
    GridStrategy,
    HillClimbStrategy,
    Observation,
    RandomStrategy,
    Strategy,
    SuccessiveHalvingStrategy,
    TuningTask,
    available_strategies,
    resolve_strategy,
)
from .tuner import Tuner, TuningResult

__all__ = [
    "GridStrategy",
    "HillClimbStrategy",
    "Observation",
    "RandomStrategy",
    "SearchSpace",
    "Strategy",
    "SuccessiveHalvingStrategy",
    "Tuner",
    "TuningDB",
    "TuningResult",
    "TuningTask",
    "available_strategies",
    "default_db",
    "default_space",
    "resolve_db",
    "resolve_strategy",
]
