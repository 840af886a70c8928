"""Pluggable, seeded search strategies.

Every strategy drives evaluations through a :class:`TuningTask` — the
evaluation context that wraps a
:class:`~repro.api.engine.PerforationEngine`, one application and one
input.  The task owns

* the validity-filtered candidate list (deterministic enumeration order,
  from the :class:`~repro.autotune.space.SearchSpace`);
* *multi-fidelity* evaluation: a fidelity ``f < 1`` measures the error on
  an input downscaled by ``1/f`` per axis (cheap screening) while the
  speedup always comes from the full-size timing model, so screening
  scores are comparable across fidelities;
* memoization (a configuration/fidelity pair is evaluated once) and the
  evaluation budget;
* batched submission to the engine's worker pool, where
  :meth:`PerforationEngine.errors <repro.api.engine.PerforationEngine.errors>`
  approximates each distinct approximation key of a batch once; every
  configuration still counts as one evaluation.

Determinism contract: a strategy proposes *batches*; the task evaluates a
batch through :meth:`PerforationEngine._map`, which preserves order, and
every evaluation is a pure function of its inputs — so with a fixed seed
the evaluation sequence and the resulting front are identical across runs
and across ``workers`` settings (the PR 1 parallel == serial guarantee).
All tie-breaks sort on content keys, never on hashes or dict order.

Strategies
----------
``grid``
    Exhaustive full-fidelity sweep of the candidate list (the paper's
    Section 6.3/6.4 approach; the reference the others are measured
    against).
``random``
    Seeded uniform sample of the candidate list, evaluated at full
    fidelity.
``hill-climb``
    Seeded multi-start local search: from each start, repeatedly evaluate
    the single-axis neighbors of the current Pareto archive until the
    archive stops improving or the budget runs out.
``successive-halving``
    Multi-fidelity screening: evaluate every candidate on a small input,
    promote the best non-dominated layers to the next fidelity, and only
    the survivors to a full-size evaluation.
"""

from __future__ import annotations

import abc
import bisect
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.config import ApproximationConfig
from ..core.errors import TuningError
from ..core.pareto import pareto_front
from ..data.hotspot import HotspotInput
from .space import SearchSpace, config_key

#: Screening fidelities tried by the multi-fidelity strategies, coarsest
#: first (fraction of the full linear input size).
SCREENING_FRACTIONS: tuple[float, ...] = (0.25, 0.5)


@dataclass(frozen=True)
class Observation:
    """One evaluated (configuration, fidelity) pair."""

    config: ApproximationConfig
    fidelity: float
    error: float
    speedup: float
    runtime_s: float

    @property
    def is_full_fidelity(self) -> bool:
        return self.fidelity >= 1.0

    @property
    def key(self) -> str:
        return config_key(self.config)

    def describe(self) -> str:
        return (
            f"{self.config.label:<14s} wg={self.config.work_group!s:<9s} "
            f"fid={self.fidelity:4.2f} error={self.error * 100:6.2f}%  "
            f"speedup={self.speedup:5.2f}x"
        )


def _downscale(inputs, step: int):
    """``inputs`` subsampled by ``step`` per axis, or ``None`` if unsupported."""
    if isinstance(inputs, np.ndarray):
        if inputs.ndim < 2 or inputs.shape[0] % step or inputs.shape[1] % step:
            return None
        return np.ascontiguousarray(inputs[::step, ::step])
    if isinstance(inputs, (tuple, list)):
        scaled = [_downscale(part, step) for part in inputs]
        if any(part is None for part in scaled):
            return None
        return type(inputs)(scaled)
    if isinstance(inputs, HotspotInput):
        # Both grids shrink together; the screened grid's update coefficients
        # follow from its own size, as for any Hotspot input.
        temperature = _downscale(inputs.temperature, step)
        if temperature is None:
            return None
        power = _downscale(inputs.power, step)
        return HotspotInput(size=temperature.shape[0], temperature=temperature, power=power)
    return None


class TuningTask:
    """Evaluation context of one (engine, application, input) tuning run.

    Every fidelity takes one path (:meth:`evaluate_batch`): the errors of a
    batch come from one ``engine.errors`` call on :meth:`scaled_inputs`, so
    configurations that share an
    :meth:`~repro.apps.base.Application.approximation_key` share one
    approximation, and each speedup comes from the full-size timing model.
    Budget and observations stay per configuration: sharing changes no
    observation, count or front.
    """

    def __init__(
        self,
        engine,
        app,
        inputs,
        space: SearchSpace,
        max_evals: int | None = None,
    ) -> None:
        self.engine = engine
        self.app = engine.resolve_app(app)
        self.inputs = inputs
        self.space = space
        if max_evals is not None and max_evals < 1:
            raise TuningError(f"max_evals must be positive, got {max_evals}")
        self.max_evals = max_evals
        self.observations: list[Observation] = []
        self._memo: dict[tuple[str, float], Observation] = {}
        self.full_size = self.app.global_size(inputs)
        self._scaled: dict[float, object] = {1.0: inputs}
        self._candidates: list[ApproximationConfig] | None = None

    # ------------------------------------------------------------------
    # Candidates and fidelities
    # ------------------------------------------------------------------
    def candidates(self) -> list[ApproximationConfig]:
        """Validity-filtered candidate list (deterministic order, cached)."""
        if self._candidates is None:
            self._candidates = self.space.configurations(
                halo=self.app.halo,
                global_size=self.full_size,
                device=self.engine.device,
            )
        return self._candidates

    def scaled_inputs(self, fidelity: float):
        """The input downscaled to ``fidelity``, or ``None`` if unsupported."""
        if fidelity not in self._scaled:
            step = round(1.0 / fidelity)
            scaled = _downscale(self.inputs, step) if step > 1 else None
            self._scaled[fidelity] = scaled
        return self._scaled[fidelity]

    def screening_fidelities(self) -> tuple[float, ...]:
        """Usable screening fidelities, coarsest first (may be empty)."""
        return tuple(
            fraction
            for fraction in SCREENING_FRACTIONS
            if self.scaled_inputs(fraction) is not None
        )

    # ------------------------------------------------------------------
    # Budget
    # ------------------------------------------------------------------
    @property
    def evaluations(self) -> int:
        """Total evaluations spent (all fidelities)."""
        return len(self.observations)

    @property
    def full_evaluations(self) -> int:
        """Full-fidelity evaluations spent (the expensive kind)."""
        return sum(1 for o in self.observations if o.is_full_fidelity)

    @property
    def exhausted(self) -> bool:
        return self.max_evals is not None and self.evaluations >= self.max_evals

    def _remaining(self) -> int | None:
        if self.max_evals is None:
            return None
        return max(0, self.max_evals - self.evaluations)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(
        self, configs: Sequence[ApproximationConfig], fidelity: float = 1.0
    ) -> list[Observation]:
        """Evaluate ``configs`` at ``fidelity`` as one ordered parallel batch.

        Returns one observation per *requested* config, in request order,
        truncated when the budget runs out.  Already-evaluated pairs, and a
        config repeated within the batch, are served from the memo without
        consuming budget; every other config spends one evaluation.
        """
        requested: list[str] = []
        fresh: dict[str, ApproximationConfig] = {}
        remaining = self._remaining()
        for config in configs:
            key = config_key(config)
            if (key, fidelity) not in self._memo and key not in fresh:
                if remaining is not None and len(fresh) >= remaining:
                    break  # budget exhausted: drop the tail deterministically
                fresh[key] = config
            requested.append(key)

        if fresh:
            for observation in self._evaluate(list(fresh.values()), fidelity):
                self._memo[(observation.key, fidelity)] = observation
                self.observations.append(observation)
        return [self._memo[(key, fidelity)] for key in requested]

    def _evaluate(
        self, configs: Sequence[ApproximationConfig], fidelity: float
    ) -> list[Observation]:
        """Errors on the input at ``fidelity``; speedups from the full-size model.

        The errors come from one :meth:`PerforationEngine.errors
        <repro.api.engine.PerforationEngine.errors>` call on
        :meth:`scaled_inputs` (the input itself at full fidelity), which
        approximates each distinct approximation key once.
        """
        scaled = self.scaled_inputs(fidelity)
        if scaled is None:
            raise TuningError(f"no screening input available at fidelity {fidelity}")
        errors = self.engine.errors(self.app, scaled, configs)
        baseline_s = self.engine.baseline_timing(self.app, self.full_size).total_time_s
        observations = []
        for config, error in zip(configs, errors):
            approx_s = self.engine.timing(self.app, config, self.full_size).total_time_s
            observations.append(
                Observation(
                    config=config,
                    fidelity=fidelity,
                    error=error,
                    speedup=baseline_s / approx_s,
                    runtime_s=approx_s,
                )
            )
        return observations


# ---------------------------------------------------------------------------
# Strategy base and helpers
# ---------------------------------------------------------------------------
def _sort_key(observation: Observation) -> tuple:
    """Deterministic content-based ordering of observations."""
    return (-observation.speedup, observation.error, observation.key)


def nondominated_layers(observations: Sequence[Observation]) -> list[list[Observation]]:
    """Non-dominated sorting: layer 0 is the Pareto front, layer 1 the front
    of the rest, and so on.  Order within a layer follows the input order
    (which strategies keep deterministic).

    One sort of the distinct (speedup, error) pairs by (-speedup, error)
    ranks them all (Jensen, IEEE TEC 2003): every pair that dominates a
    pair sorts before it, so a pair joins the first layer whose lowest
    error so far exceeds its own, found by bisection.  Observations with
    equal pairs share a layer; a pair whose speedup equals that of a
    lower-error pair goes at least one layer below it.
    """
    rank = {(o.speedup, o.error): 0 for o in observations}
    lowest: list[float] = []  # lowest error per layer so far; non-decreasing
    for pair in sorted(rank, key=lambda p: (-p[0], p[1])):
        layer = bisect.bisect_right(lowest, pair[1])
        if layer == len(lowest):
            lowest.append(pair[1])
        else:
            lowest[layer] = pair[1]
        rank[pair] = layer
    layers: list[list[Observation]] = [[] for _ in lowest]
    for o in observations:
        layers[rank[(o.speedup, o.error)]].append(o)
    return layers


class Strategy(abc.ABC):
    """A seeded search procedure over one :class:`TuningTask`."""

    name: str = "strategy"

    @abc.abstractmethod
    def tune(self, task: TuningTask, rng: random.Random) -> None:
        """Drive evaluations on ``task`` (results live in its observations)."""

    def describe(self) -> dict:
        """JSON-serializable identity (part of the tuning-database key)."""
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"


class GridStrategy(Strategy):
    """Exhaustive full-fidelity sweep — the paper's reference procedure."""

    name = "grid"

    def tune(self, task: TuningTask, rng: random.Random) -> None:
        task.evaluate_batch(task.candidates(), 1.0)


class RandomStrategy(Strategy):
    """Seeded uniform sample of the candidate list at full fidelity."""

    name = "random"

    def __init__(self, fraction: float = 0.5) -> None:
        if not 0.0 < fraction <= 1.0:
            raise TuningError(f"sample fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def describe(self) -> dict:
        return {"name": self.name, "fraction": self.fraction}

    def tune(self, task: TuningTask, rng: random.Random) -> None:
        candidates = task.candidates()
        count = max(1, math.ceil(len(candidates) * self.fraction))
        if task.max_evals is not None:
            count = min(count, task.max_evals)
        sample = rng.sample(candidates, min(count, len(candidates)))
        task.evaluate_batch(sample, 1.0)


class HillClimbStrategy(Strategy):
    """Seeded multi-start local search over the space's single-axis moves.

    Maintains a Pareto archive of the full-fidelity observations; each
    round evaluates the unexplored neighbors of every archive member (one
    deterministic batch) and stops when a round discovers no archive
    change or the budget runs out.
    """

    name = "hill-climb"

    def __init__(self, starts: int = 4, max_rounds: int = 32) -> None:
        if starts < 1:
            raise TuningError(f"starts must be positive, got {starts}")
        if max_rounds < 1:
            raise TuningError(f"max_rounds must be positive, got {max_rounds}")
        self.starts = starts
        self.max_rounds = max_rounds

    def describe(self) -> dict:
        return {"name": self.name, "starts": self.starts, "max_rounds": self.max_rounds}

    def tune(self, task: TuningTask, rng: random.Random) -> None:
        candidates = task.candidates()
        if not candidates:
            return
        starts = rng.sample(candidates, min(self.starts, len(candidates)))
        task.evaluate_batch(starts, 1.0)
        evaluated = {config_key(c) for c in starts}

        for _ in range(self.max_rounds):
            if task.exhausted:
                break
            archive = pareto_front(
                [o for o in task.observations if o.is_full_fidelity]
            )
            batch: list[ApproximationConfig] = []
            for observation in sorted(archive, key=_sort_key):
                for neighbor in task.space.neighbors(
                    observation.config,
                    halo=task.app.halo,
                    global_size=task.full_size,
                    device=task.engine.device,
                ):
                    key = config_key(neighbor)
                    if key not in evaluated:
                        evaluated.add(key)
                        batch.append(neighbor)
            if not batch:
                break
            task.evaluate_batch(batch, 1.0)


class SuccessiveHalvingStrategy(Strategy):
    """Multi-fidelity screening with non-dominated promotion.

    Every candidate is first evaluated at the coarsest screening fidelity
    (or at full size when the input cannot be downscaled).  Screening runs
    the sampler-based NumPy path, whose tiles clamp at the edge of a
    downscaled input, so every work-group shape screens at every fidelity.
    After each screening rung the pool is non-dominated sorted on
    (speedup, screened error) and whole layers are promoted until at least
    ``1/eta`` of the pool survives; only the final survivors are evaluated
    at full size.
    """

    name = "successive-halving"

    def __init__(self, eta: float = 2.0) -> None:
        if eta <= 1.0:
            raise TuningError(f"eta must be > 1, got {eta}")
        self.eta = eta

    def describe(self) -> dict:
        return {"name": self.name, "eta": self.eta}

    def tune(self, task: TuningTask, rng: random.Random) -> None:
        pool = task.candidates()
        for fidelity in [*task.screening_fidelities(), 1.0]:
            observations = task.evaluate_batch(pool, fidelity)
            if fidelity >= 1.0 or task.exhausted:
                break
            quota = max(1, math.ceil(len(pool) / self.eta))
            survivors: list[Observation] = []
            for layer in nondominated_layers(observations):
                survivors.extend(layer)
                if len(survivors) >= quota:
                    break
            pool = [o.config for o in survivors]


# ---------------------------------------------------------------------------
# Strategy registry
# ---------------------------------------------------------------------------
STRATEGIES: dict[str, type[Strategy]] = {
    GridStrategy.name: GridStrategy,
    RandomStrategy.name: RandomStrategy,
    HillClimbStrategy.name: HillClimbStrategy,
    SuccessiveHalvingStrategy.name: SuccessiveHalvingStrategy,
}


def available_strategies() -> list[str]:
    return sorted(STRATEGIES)


def resolve_strategy(strategy: Strategy | str | None) -> Strategy:
    """Resolve a strategy instance or registered name (``None`` -> default)."""
    if strategy is None:
        return SuccessiveHalvingStrategy()
    if isinstance(strategy, Strategy):
        return strategy
    cls = STRATEGIES.get(strategy)
    if cls is None:
        raise TuningError(
            f"unknown strategy {strategy!r}; available: {', '.join(available_strategies())}"
        )
    return cls()
