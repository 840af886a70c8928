"""Fluent per-application sessions.

A :class:`Session` binds a :class:`~repro.api.engine.PerforationEngine` to
one application and exposes the evaluation, sweep and auto-tuning surface
as a fluent API:

.. code-block:: python

    engine = PerforationEngine(workers=4)

    sweep = engine.session(app="gaussian").sweep()          # paper's 4 configs
    front = sweep.pareto_optimal()

    tuned = engine.session(app="sobel3").autotune(error_budget=0.01)
    output = tuned.run_compiled(image)                       # selected config

The auto-tuning half is the offline step of the quality-aware loop:
*calibrate* on representative inputs, then *select* the fastest
configuration expected to meet the error budget.  :func:`calibrate_configs`
is the one function that builds calibration entries; the online half —
monitoring served quality and tightening or loosening the configuration —
is :class:`repro.serve.controller.OnlineController`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..obs.trace import get_tracer
from ..core.config import (
    ACCURATE_CONFIG,
    ApproximationConfig,
    WORK_GROUP_CANDIDATES,
    default_configurations,
)
from ..core.errors import TuningError
from ..core.pipeline import ConfigurationResult, DatasetResult, baseline_config_for
from ..core.tuning import SweepResult, WorkGroupTiming

#: Calibration safety margin: a configuration is admissible under an error
#: budget when ``mean_error * (1 + SAFETY_MARGIN) <= budget``.
SAFETY_MARGIN = 0.25


@dataclass(frozen=True)
class CalibrationEntry:
    """Calibrated statistics of one configuration."""

    config: ApproximationConfig
    mean_error: float
    max_error: float
    speedup: float

    def admissible(self, budget: float) -> bool:
        """Whether this configuration is expected to meet ``budget``."""
        return self.mean_error * (1.0 + SAFETY_MARGIN) <= budget


def default_inputs(app):
    """A representative input of ``app``, for callers that supplied none."""
    from ..data import hotspot_single, single_image
    from ..data.images import ImageClass

    if app.name == "hotspot":
        return hotspot_single(size=256, seed=42)
    try:
        return single_image(ImageClass.NATURAL, size=256, seed=42)
    except Exception as exc:  # pragma: no cover - defensive
        raise TuningError(
            f"no default inputs available for {app.name!r}; "
            f"pass inputs explicitly (session.with_inputs(...) or sweep(inputs))"
        ) from exc


def calibrate_configs(
    engine, app, calibration_inputs: Sequence, configs: Sequence[ApproximationConfig]
) -> list[CalibrationEntry]:
    """Calibrated entries of ``configs``, sorted fastest-first.

    Each configuration's error is measured on every calibration input and
    reduced to its mean and maximum; its speedup comes from the timing
    model at the first input's size.  Configurations are bucketed by their
    full identity (:attr:`ApproximationConfig.key`), not the figure label,
    so ones that differ only in work group calibrate independently.
    :meth:`Session.calibrate` and
    :meth:`repro.serve.controller.OnlineController.ladder` both call this,
    which keeps their entries bit-identical; each call records one
    ``session.calibrate`` span.
    """
    calibration_inputs = list(calibration_inputs)
    if not calibration_inputs:
        raise TuningError("calibration requires at least one input")
    tracer = get_tracer()
    start_ns = time.monotonic_ns() if tracer.enabled else 0
    per_config_errors: dict[str, list[float]] = {c.key: [] for c in configs}
    by_key = {c.key: c for c in configs}
    for inputs in calibration_inputs:
        for point in engine.sweep(app, inputs, configs).points:
            per_config_errors[point.config.key].append(point.error)

    global_size = app.global_size(calibration_inputs[0])
    baseline_time = engine.baseline_timing(app, global_size).total_time_s
    entries = [
        CalibrationEntry(
            config=by_key[key],
            mean_error=float(np.mean(errors)),
            max_error=float(np.max(errors)),
            speedup=baseline_time / engine.timing(app, by_key[key], global_size).total_time_s,
        )
        for key, errors in per_config_errors.items()
    ]
    entries.sort(key=lambda e: e.speedup, reverse=True)
    if tracer.enabled:
        tracer.record(
            "session.calibrate",
            category="calibrate",
            start_ns=start_ns,
            duration_ns=time.monotonic_ns() - start_ns,
            app=app.name,
            configs=len(entries),
            inputs=len(calibration_inputs),
        )
    return entries


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
    ) -> None:
        self.engine = engine
        self.app = app
        self.configs = list(configs) if configs is not None else None
        self.inputs = inputs
        self.error_budget = error_budget
        self.calibration: list[CalibrationEntry] = []
        self.selected: ApproximationConfig = ACCURATE_CONFIG

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

    # ------------------------------------------------------------------
    def _inputs_or_default(self, inputs):
        """``inputs``, else the session's inputs, else (cached) :func:`default_inputs`."""
        if inputs is not None:
            return inputs
        if self.inputs is None:
            self.inputs = default_inputs(self.app)
        return self.inputs

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
        given (the accurate kernel before :meth:`autotune` was called), on
        the engine's execution backend.
        """
        inputs = self._inputs_or_default(inputs)
        if config is None:
            config = self.selected
        return self.engine.run_compiled(self.app, inputs, config, with_stats=with_stats)

    def run_compiled_batch(
        self,
        inputs_batch: Sequence,
        config: ApproximationConfig | None = None,
        with_stats: bool = False,
    ):
        """Micro-batched compiled run of several same-sized inputs.

        Uses the session's selected configuration when ``config`` is not
        given, on the engine's execution backend.  See
        :meth:`PerforationEngine.run_compiled_batch`.
        """
        if config is None:
            config = self.selected
        return self.engine.run_compiled_batch(self.app, inputs_batch, config, with_stats=with_stats)

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
    # Auto-tuning (calibrate and select)
    # ------------------------------------------------------------------
    def autotune(
        self,
        error_budget: float | None = None,
        calibration_inputs: Sequence | None = None,
        configs: Iterable[ApproximationConfig] | None = None,
    ) -> "Session":
        """Calibrate on representative inputs and select a configuration.

        Returns the session itself so the tuned configuration can be used
        fluently:
        ``engine.session(app="sobel3").autotune(0.01).run_compiled(image)``.
        """
        if error_budget is not None:
            self.error_budget = error_budget
        if configs is not None:
            self.configs = list(configs)
        self.calibrate(calibration_inputs)
        return self

    def calibrate(self, calibration_inputs: Sequence | None = None) -> list[CalibrationEntry]:
        """Measure error/speedup of every candidate on the calibration inputs.

        The error statistics are aggregated over the calibration inputs;
        the speedup is computed once per configuration from the timing
        model (it depends only on the configuration and the input size), so
        calibration entries are deterministic regardless of sweep ordering
        (see :func:`calibrate_configs`).
        """
        if self.error_budget is None or self.error_budget <= 0:
            raise TuningError("error budget must be positive")
        if calibration_inputs is None:
            calibration_inputs = [self._inputs_or_default(None)]
        if self.configs is None:
            self.configs = default_configurations(self.app.halo)  # expose what calibration explored
        self.calibration = calibrate_configs(
            self.engine, self.app, calibration_inputs, self.configs
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
            if entry.admissible(self.error_budget):
                return entry.config
        return ACCURATE_CONFIG

    # ------------------------------------------------------------------
    def report(self) -> str:
        """Human-readable calibration + selection summary."""
        budget = self.error_budget if self.error_budget is not None else float("nan")
        lines = [
            f"Quality-aware session for {self.app.name!r} "
            f"(budget {budget:.2%}, margin {SAFETY_MARGIN:.0%})"
        ]
        for entry in self.calibration:
            marker = "*" if entry.config == self.selected else " "
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
