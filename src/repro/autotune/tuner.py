"""The :class:`Tuner` facade.

Ties the subsystem together: resolve the search space, run a seeded
strategy over a :class:`~repro.autotune.strategies.TuningTask`, persist
the outcome in the :class:`~repro.autotune.db.TuningDB`, and answer the
questions callers actually ask — the Pareto front and budget-indexed
configuration ladders.

The entry point is :meth:`Tuner.tune`: a full search over the space,
returning a :class:`TuningResult`; a warm database replays it with
**zero** evaluations.  Calibrating a fixed list of configurations is
:func:`repro.api.calibration.calibrate_configs`, which the serve
controller calls too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from ..api.cache import input_token
from ..api.calibration import CalibrationEntry, default_inputs, select
from ..core.config import ApproximationConfig
from ..core.pareto import pareto_front
from .db import TuningDB, resolve_db, tuning_key
from .space import (
    SearchSpace,
    config_from_dict,
    config_to_dict,
    default_space,
)
from .strategies import Observation, Strategy, TuningTask, resolve_strategy


@dataclass
class TuningResult:
    """Outcome of one tuning run (fresh or replayed from the database)."""

    app_name: str
    strategy: dict
    seed: int
    space_signature: str
    observations: list[Observation] = field(default_factory=list)
    from_db: bool = False

    # ------------------------------------------------------------------
    @property
    def evaluations(self) -> int:
        return len(self.observations)

    @property
    def full_evaluations(self) -> int:
        return sum(1 for o in self.observations if o.is_full_fidelity)

    def full_observations(self) -> list[Observation]:
        return [o for o in self.observations if o.is_full_fidelity]

    # ------------------------------------------------------------------
    def front(self) -> list[Observation]:
        """Pareto front of the full-fidelity observations."""
        return pareto_front(self.full_observations())

    # ------------------------------------------------------------------
    def ladder(self):
        """Calibration-style ladder of the full-fidelity observations.

        Entries sorted fastest-first, one per configuration — directly
        consumable by :func:`repro.api.calibration.select` and the serve
        controller.
        """
        entries = [
            CalibrationEntry(
                config=o.config,
                mean_error=o.error,
                max_error=o.error,
                speedup=o.speedup,
            )
            for o in self.full_observations()
        ]
        entries.sort(key=lambda e: e.speedup, reverse=True)
        return entries

    def best_for_budget(self, budget: float) -> ApproximationConfig | None:
        """Fastest tuned configuration expected to meet ``budget``."""
        rung = select(self.ladder(), budget)
        return rung.config if rung is not None else None

    def budget_ladder(self, budgets: Iterable[float]) -> dict[float, ApproximationConfig | None]:
        """Budget-indexed ladder: the selected configuration per error budget."""
        return {budget: self.best_for_budget(budget) for budget in budgets}

    # ------------------------------------------------------------------
    def to_record(self) -> dict:
        return {
            "kind": "tune",
            "app": self.app_name,
            "strategy": self.strategy,
            "seed": self.seed,
            "space_signature": self.space_signature,
            "observations": [
                {
                    "config": config_to_dict(o.config),
                    "fidelity": o.fidelity,
                    "error": o.error,
                    "speedup": o.speedup,
                    "runtime_s": o.runtime_s,
                }
                for o in self.observations
            ],
        }

    @classmethod
    def from_record(cls, record: dict) -> "TuningResult":
        return cls(
            app_name=record["app"],
            strategy=record["strategy"],
            seed=int(record["seed"]),
            space_signature=record["space_signature"],
            observations=[
                Observation(
                    config=config_from_dict(o["config"]),
                    fidelity=float(o["fidelity"]),
                    error=o["error"],
                    speedup=o["speedup"],
                    runtime_s=o["runtime_s"],
                )
                for o in record["observations"]
            ],
            from_db=True,
        )

    def describe(self) -> str:
        """Human-readable summary of the front."""
        lines = [
            f"Tuning result for {self.app_name!r} "
            f"({self.strategy.get('name', '?')}, seed {self.seed}): "
            f"{self.evaluations} evaluations "
            f"({self.full_evaluations} full-fidelity)"
            + (" [from tuning DB]" if self.from_db else "")
        ]
        lines.extend(f"  {o.describe()}" for o in self.front())
        return "\n".join(lines)


class Tuner:
    """Adaptive multi-fidelity autotuner over one engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.api.engine.PerforationEngine` evaluations run
        on (``None`` builds a fresh serial engine).  Worker parallelism,
        memoization and the device/timing model all come from here.
    space:
        The :class:`SearchSpace` to explore (default:
        :func:`default_space`).
    seed:
        Seed for the strategies' random decisions.
    db:
        Tuning database: ``None`` uses the environment default
        (``REPRO_TUNING_DB``), ``False``/``"off"`` disables persistence, a
        path opens a database there, a :class:`TuningDB` is used as-is.
    """

    def __init__(
        self,
        engine=None,
        space: SearchSpace | None = None,
        seed: int = 0,
        db: TuningDB | str | bool | None = None,
    ) -> None:
        if engine is None:
            from ..api.engine import PerforationEngine

            engine = PerforationEngine()
        self.engine = engine
        self.space = space if space is not None else default_space()
        self.seed = seed
        self.db = resolve_db(db)

    # ------------------------------------------------------------------
    def _device_signature(self) -> str:
        import hashlib

        return hashlib.sha256(repr(self.engine.device).encode()).hexdigest()

    def _record_key(self, app, inputs, **question) -> str | None:
        """The database key of a question about ``app`` on ``inputs``.

        ``None`` when persistence is off, or when ``inputs`` has no content
        fingerprint (:func:`~repro.api.cache.input_token`): such a question
        bypasses the database rather than share a key with other inputs.
        """
        if self.db is None:
            return None
        token = input_token(inputs)
        if token is None:
            return None
        return tuning_key(
            app=app.name,
            device=self._device_signature(),
            inputs=repr(token),
            **question,
        )

    # ------------------------------------------------------------------
    def tune(
        self,
        app,
        inputs=None,
        strategy: Strategy | str | None = None,
        max_evals: int | None = None,
    ) -> TuningResult:
        """Search the space for ``app`` on ``inputs`` with ``strategy`` (a
        registered name or instance, ``None`` for successive halving) and at
        most ``max_evals`` evaluations at all fidelities (``None``: no limit).

        A database hit replays the recorded result without a single
        evaluation; a miss runs the strategy and persists the outcome.
        """
        app = self.engine.resolve_app(app)
        if inputs is None:
            inputs = default_inputs(app)
        strategy = resolve_strategy(strategy)
        key = self._record_key(
            app,
            inputs,
            kind="tune",
            space=self.space.signature(),
            strategy=strategy.describe(),
            seed=self.seed,
            max_evals=max_evals,
        )
        if key is not None:
            record = self.db.get(key)
            if record is not None:
                return TuningResult.from_record(record)

        task = TuningTask(self.engine, app, inputs, self.space, max_evals=max_evals)
        strategy.tune(task, random.Random(self.seed))
        result = TuningResult(
            app_name=app.name,
            strategy=strategy.describe(),
            seed=self.seed,
            space_signature=self.space.signature(),
            observations=task.observations,
        )
        if key is not None:
            self.db.put(key, result.to_record())
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Tuner seed={self.seed} db={'on' if self.db is not None else 'off'} "
            f"on {self.engine!r}>"
        )
