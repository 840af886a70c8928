"""Fluent per-application sessions.

A :class:`Session` binds a :class:`~repro.api.engine.PerforationEngine` to
one application and exposes the evaluation, sweep and auto-tuning surface
as a fluent API:

.. code-block:: python

    engine = PerforationEngine(workers=4)

    sweep = engine.session(app="gaussian").sweep()          # paper's 4 configs
    front = sweep.pareto_optimal()

    tuned = engine.session(app="sobel3").autotune(error_budget=0.01)
    record = tuned.run(image, monitor=True)                  # quality-aware exec

The auto-tuning half is the quality-aware loop: *calibrate* on
representative inputs, *select* the fastest configuration expected to
meet the error budget, *run* new inputs with it, optionally monitoring the
achieved quality and demoting the configuration when the budget is
violated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..clsim.backends import resolve_backend
from ..obs.trace import get_tracer
from ..core.config import ACCURATE_CONFIG, ApproximationConfig, WORK_GROUP_CANDIDATES
from ..core.errors import TuningError
from ..core.pipeline import ConfigurationResult, DatasetResult, baseline_config_for
from ..core.quality import compute_error
from ..core.tuning import SweepResult, WorkGroupTiming


def _resolve_session_backend(backend):
    """Normalise a session backend selection (``None`` defers to the engine)."""
    return None if backend is None else resolve_backend(backend)


@dataclass(frozen=True)
class CalibrationEntry:
    """Calibrated statistics of one configuration."""

    config: ApproximationConfig
    mean_error: float
    max_error: float
    speedup: float

    def admissible(self, budget: float, safety_margin: float) -> bool:
        """Whether this configuration is expected to meet ``budget``."""
        return self.mean_error * (1.0 + safety_margin) <= budget


@dataclass
class ExecutionRecord:
    """Outcome of one monitored execution."""

    config: ApproximationConfig
    error: float | None
    within_budget: bool
    output: np.ndarray


class Session:
    """Evaluation session of one application on one engine.

    Created via :meth:`PerforationEngine.session`; all heavy lifting —
    caching, worker parallelism, timing — happens in the engine, so any
    number of sessions can share one engine (and its caches).
    """

    def __init__(
        self,
        engine,
        app,
        configs: Iterable[ApproximationConfig] | None = None,
        inputs=None,
        error_budget: float | None = None,
        safety_margin: float = 0.25,
        backend=None,
    ) -> None:
        self.engine = engine
        self.app = app
        self.configs = list(configs) if configs is not None else None
        self.inputs = inputs
        self.error_budget = error_budget
        self.safety_margin = safety_margin
        #: Execution backend for compiled-kernel runs; ``None`` defers to
        #: the engine's backend.  Resolved eagerly so unknown backend names
        #: fail here rather than deep inside the first run_compiled().
        self.backend = _resolve_session_backend(backend)
        self.calibration: list[CalibrationEntry] = []
        self.selected: ApproximationConfig = ACCURATE_CONFIG
        self.history: list[ExecutionRecord] = []

    # ------------------------------------------------------------------
    # Fluent configuration
    # ------------------------------------------------------------------
    def with_inputs(self, inputs) -> "Session":
        """Set the default inputs used by :meth:`sweep` and :meth:`autotune`."""
        self.inputs = inputs
        return self

    def with_configs(self, configs: Iterable[ApproximationConfig]) -> "Session":
        """Restrict the candidate configurations explored by this session."""
        self.configs = list(configs)
        return self

    def with_error_budget(self, budget: float) -> "Session":
        self.error_budget = budget
        return self

    def with_backend(self, backend) -> "Session":
        """Select the execution backend for this session's compiled runs."""
        self.backend = _resolve_session_backend(backend)
        return self

    # ------------------------------------------------------------------
    def default_inputs(self):
        """The inputs this session evaluates on when none are passed.

        Resolves (and caches) the representative sample input when the
        caller never supplied any; the autotuner uses this to tune on the
        exact input calibration would have used.
        """
        return self._inputs_or_default(None)

    def _inputs_or_default(self, inputs):
        if inputs is not None:
            return inputs
        if self.inputs is not None:
            return self.inputs
        self.inputs = self._sample_inputs()
        return self.inputs

    def _sample_inputs(self):
        """A representative input when the caller supplied none."""
        from ..data import hotspot_single, single_image
        from ..data.images import ImageClass

        if self.app.name == "hotspot":
            return hotspot_single(size=256, seed=42)
        try:
            return single_image(ImageClass.NATURAL, size=256, seed=42)
        except Exception as exc:  # pragma: no cover - defensive
            raise TuningError(
                f"no default inputs available for {self.app.name!r}; "
                f"pass inputs explicitly (session.with_inputs(...) or sweep(inputs))"
            ) from exc

    # ------------------------------------------------------------------
    # Evaluation and sweeps (delegating to the engine)
    # ------------------------------------------------------------------
    def evaluate(self, inputs, config: ApproximationConfig) -> ConfigurationResult:
        return self.engine.evaluate(self.app, inputs, config)

    def run_compiled(
        self,
        inputs=None,
        config: ApproximationConfig | None = None,
        with_stats: bool = False,
    ):
        """Run the compiled (perforated) kernel on the simulated device.

        Uses the session's selected configuration when ``config`` is not
        given (the accurate kernel before :meth:`autotune` was called), and
        the session's execution backend (falling back to the engine's).
        """
        inputs = self._inputs_or_default(inputs)
        if config is None:
            config = self.selected
        return self.engine.run_compiled(
            self.app, inputs, config, backend=self.backend, with_stats=with_stats
        )

    def run_compiled_batch(
        self,
        inputs_batch: Sequence,
        config: ApproximationConfig | None = None,
        with_stats: bool = False,
    ):
        """Micro-batched compiled run of several same-sized inputs.

        Uses the session's selected configuration when ``config`` is not
        given, and the session's execution backend (falling back to the
        engine's).  See :meth:`PerforationEngine.run_compiled_batch`.
        """
        if config is None:
            config = self.selected
        return self.engine.run_compiled_batch(
            self.app, inputs_batch, config, backend=self.backend, with_stats=with_stats
        )

    def evaluate_many(
        self, inputs, configs: Iterable[ApproximationConfig]
    ) -> list[ConfigurationResult]:
        return self.engine.evaluate_many(self.app, inputs, configs)

    def evaluate_dataset(
        self, dataset: Sequence, config: ApproximationConfig
    ) -> DatasetResult:
        return self.engine.evaluate_dataset(self.app, dataset, config)

    def sweep(
        self,
        inputs=None,
        configs: Iterable[ApproximationConfig] | None = None,
    ) -> SweepResult:
        """Sweep the session's configurations on ``inputs`` (or the defaults)."""
        inputs = self._inputs_or_default(inputs)
        if configs is None:
            configs = self.configs
        return self.engine.sweep(self.app, inputs, configs)

    def full_sweep(
        self,
        inputs=None,
        configs: Iterable[ApproximationConfig] | None = None,
        work_groups: Sequence[tuple[int, int]] = WORK_GROUP_CANDIDATES,
    ) -> SweepResult:
        inputs = self._inputs_or_default(inputs)
        if configs is None:
            configs = self.configs
        return self.engine.full_sweep(self.app, inputs, configs, work_groups)

    def sweep_work_groups(
        self,
        configs: Sequence[ApproximationConfig],
        inputs=None,
        work_groups: Sequence[tuple[int, int]] = WORK_GROUP_CANDIDATES,
        include_baseline: bool = True,
    ) -> list[WorkGroupTiming]:
        inputs = self._inputs_or_default(inputs)
        return self.engine.sweep_work_groups(
            self.app, inputs, configs, work_groups, include_baseline
        )

    def best_work_group(
        self,
        config: ApproximationConfig,
        inputs=None,
        work_groups: Sequence[tuple[int, int]] = WORK_GROUP_CANDIDATES,
    ) -> tuple[int, int]:
        inputs = self._inputs_or_default(inputs)
        return self.engine.best_work_group(self.app, inputs, config, work_groups)

    # ------------------------------------------------------------------
    # Auto-tuning (quality-aware runtime)
    # ------------------------------------------------------------------
    def autotune(
        self,
        error_budget: float | None = None,
        calibration_inputs: Sequence | None = None,
        configs: Iterable[ApproximationConfig] | None = None,
        tuner=None,
    ) -> "Session":
        """Calibrate on representative inputs and select a configuration.

        Returns the session itself so the tuned configuration can be used
        fluently: ``engine.session(app="sobel3").autotune(0.01).run(image)``.

        ``tuner`` (a :class:`repro.autotune.Tuner`, or ``True`` for a
        default one on this engine) switches calibration to the
        database-backed fast path: the entries are computed through the
        same engine primitives — bit-identical floats — but persisted in
        the tuner's :class:`~repro.autotune.db.TuningDB`, so a *second*
        autotune of the same question performs zero kernel evaluations.
        Without ``tuner`` the behaviour is unchanged.
        """
        if error_budget is not None:
            self.error_budget = error_budget
        if configs is not None:
            self.configs = list(configs)
        self.calibrate(calibration_inputs, tuner=tuner)
        return self

    def calibrate(
        self, calibration_inputs: Sequence | None = None, tuner=None
    ) -> list[CalibrationEntry]:
        """Measure error/speedup of every candidate on the calibration inputs.

        The error statistics are aggregated over the calibration inputs;
        the speedup is computed once per configuration from the timing
        model (it depends only on the configuration and the input size), so
        calibration entries are deterministic regardless of sweep ordering.

        With ``tuner`` the entries come from the tuning-database-backed
        fast path (see :meth:`autotune`); a warm database answers without
        evaluating anything, and a cold one produces bit-identical entries
        to this method's in-process path.
        """
        if self.error_budget is None or self.error_budget <= 0:
            raise TuningError("error budget must be positive")
        tracer = get_tracer()
        start_ns = time.monotonic_ns() if tracer.enabled else 0
        if tuner is not None:
            entries = self._calibrate_with_tuner(calibration_inputs, tuner)
            if tracer.enabled:
                tracer.record(
                    "session.calibrate",
                    category="calibrate",
                    start_ns=start_ns,
                    duration_ns=time.monotonic_ns() - start_ns,
                    app=self.app.name,
                    source="tuning-db",
                    configs=len(entries),
                )
            return entries
        if calibration_inputs is None:
            calibration_inputs = [self._inputs_or_default(None)]
        if len(calibration_inputs) == 0:
            raise TuningError("calibration requires at least one input")

        configs = self.configs
        if configs is None:
            from ..core.config import default_configurations

            configs = default_configurations(self.app.halo)
            self.configs = list(configs)  # expose what calibration explored

        # Bucket by the full configuration identity, not the figure label:
        # configurations differing only in work group (or scheme
        # parameters) share a label but calibrate independently.  The
        # tuner fast path (repro.autotune) buckets identically, which is
        # what keeps the two paths bit-identical.
        per_config_errors: dict[str, list[float]] = {c.key: [] for c in configs}
        by_key = {c.key: c for c in configs}
        for inputs in calibration_inputs:
            sweep = self.engine.sweep(self.app, inputs, configs)
            for point in sweep.points:
                per_config_errors[point.config.key].append(point.error)

        global_size = self.app.global_size(calibration_inputs[0])
        baseline_time = self.engine.baseline_timing(self.app, global_size).total_time_s

        self.calibration = []
        for key, errors in per_config_errors.items():
            config = by_key[key]
            approx_time = self.engine.timing(self.app, config, global_size).total_time_s
            self.calibration.append(
                CalibrationEntry(
                    config=config,
                    mean_error=float(np.mean(errors)),
                    max_error=float(np.max(errors)),
                    speedup=baseline_time / approx_time,
                )
            )
        self.calibration.sort(key=lambda e: e.speedup, reverse=True)
        self.selected = self.select()
        if tracer.enabled:
            tracer.record(
                "session.calibrate",
                category="calibrate",
                start_ns=start_ns,
                duration_ns=time.monotonic_ns() - start_ns,
                app=self.app.name,
                source="sweep",
                configs=len(self.calibration),
                inputs=len(calibration_inputs),
            )
        return self.calibration

    def _calibrate_with_tuner(
        self, calibration_inputs: Sequence | None, tuner
    ) -> list[CalibrationEntry]:
        """Database-backed calibration via :meth:`repro.autotune.Tuner
        .calibration_entries` (bit-identical to the in-process path)."""
        if tuner is True:
            from ..autotune import Tuner

            tuner = Tuner(engine=self.engine)
        if tuner.engine is not self.engine:
            raise TuningError(
                "the tuner must share this session's engine (device, caches "
                "and timing model define the calibration results)"
            )
        if calibration_inputs is None:
            calibration_inputs = [self._inputs_or_default(None)]
        if len(calibration_inputs) == 0:
            raise TuningError("calibration requires at least one input")
        if self.configs is None:
            from ..core.config import default_configurations

            self.configs = default_configurations(self.app.halo)
        self.calibration = tuner.calibration_entries(
            self.app, list(calibration_inputs), self.configs
        )
        self.selected = self.select()
        return self.calibration

    def select(self) -> ApproximationConfig:
        """Fastest calibrated configuration expected to meet the budget.

        Falls back to the accurate configuration when nothing qualifies.
        """
        if not self.calibration:
            raise TuningError("calibrate() must be called before select()")
        assert self.error_budget is not None
        for entry in self.calibration:  # sorted fastest-first
            if entry.admissible(self.error_budget, self.safety_margin):
                return entry.config
        return ACCURATE_CONFIG

    # ------------------------------------------------------------------
    # Quality-aware execution
    # ------------------------------------------------------------------
    def run(self, inputs, monitor: bool = False) -> ExecutionRecord:
        """Run the application on ``inputs`` with the selected configuration.

        With ``monitor=True`` the accurate output is also computed, the
        achieved error recorded, and the configuration demoted to a more
        accurate one when the budget was violated (mirroring the
        recalibration loop of quality-aware runtimes such as SAGE).
        """
        config = self.selected
        if config.is_accurate:
            # Copy: the cached reference is shared (and read-only); the
            # record's output belongs to the caller, who may mutate it.
            output = np.array(self.engine.reference(self.app, inputs))
            record = ExecutionRecord(
                config=config, error=0.0, within_budget=True, output=output
            )
            self.history.append(record)
            return record

        output = self.app.approximate(inputs, config)
        error = None
        within = True
        if monitor:
            reference = self.engine.reference(self.app, inputs)
            error = compute_error(reference, output, self.app.error_metric)
            budget = self.error_budget if self.error_budget is not None else float("inf")
            within = error <= budget
            if not within:
                self._demote(config)
        record = ExecutionRecord(config=config, error=error, within_budget=within, output=output)
        self.history.append(record)
        return record

    def _demote(self, config: ApproximationConfig) -> None:
        """Switch to the next more accurate calibrated configuration."""
        more_accurate = [
            entry
            for entry in sorted(self.calibration, key=lambda e: e.mean_error)
            if entry.config != config
        ]
        for entry in more_accurate:
            if entry.mean_error < self._calibrated_error(config):
                self.selected = entry.config
                return
        self.selected = ACCURATE_CONFIG

    def _calibrated_error(self, config: ApproximationConfig) -> float:
        for entry in self.calibration:
            if entry.config == config:
                return entry.mean_error
        return float("inf")

    # ------------------------------------------------------------------
    def report(self) -> str:
        """Human-readable calibration + selection summary."""
        budget = self.error_budget if self.error_budget is not None else float("nan")
        lines = [
            f"Quality-aware session for {self.app.name!r} "
            f"(budget {budget:.2%}, margin {self.safety_margin:.0%})"
        ]
        for entry in self.calibration:
            marker = "*" if entry.config.label == self.selected.label else " "
            lines.append(
                f" {marker} {entry.config.label:<14s} mean err {entry.mean_error * 100:6.2f}%  "
                f"max err {entry.max_error * 100:6.2f}%  speedup {entry.speedup:5.2f}x"
            )
        lines.append(f"selected: {self.selected.label}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Session app={self.app.name!r} selected={self.selected.label!r} "
            f"on {self.engine!r}>"
        )

    # The baseline configuration is occasionally useful to session users.
    def baseline_config(self) -> ApproximationConfig:
        return baseline_config_for(self.app)
