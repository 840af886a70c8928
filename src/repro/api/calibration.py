"""Calibration: measure candidate configurations, pick one for an error budget.

This is the offline half of the quality-aware loop (the calibrate → select
→ monitor split of SAGE, Samadi et al., MICRO 2013).
:func:`calibrate_configs` measures each candidate's error on
representative inputs and its modelled speedup, giving
:class:`CalibrationEntry` rungs sorted fastest-first (a *ladder*);
:func:`select` picks the fastest rung expected to meet an error budget:

.. code-block:: python

    engine = PerforationEngine()
    app = engine.resolve_app("sobel3")
    ladder = calibrate_configs(
        engine, app, [default_inputs(app)], default_configurations(app.halo)
    )
    rung = select(ladder, 0.01)            # None: nothing fits, run accurate
    config = rung.config if rung is not None else ACCURATE_CONFIG

The online half — monitoring served quality and tightening or loosening
the configuration — is :class:`repro.serve.controller.OnlineController`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs.trace import get_tracer
from ..core.config import ApproximationConfig
from ..core.errors import TuningError

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
    """A representative input of ``app``, for callers that supplied none:
    a 256x256 Hotspot instance for hotspot, a natural image otherwise."""
    from ..data import hotspot_single, single_image
    from ..data.images import ImageClass

    if app.name == "hotspot":
        return hotspot_single(size=256, seed=42)
    return single_image(ImageClass.NATURAL, size=256, seed=42)


def calibrate_configs(
    engine, app, calibration_inputs: Sequence, configs: Sequence[ApproximationConfig]
) -> list[CalibrationEntry]:
    """Calibrated entries of ``configs``, sorted fastest-first.

    Each configuration's error is measured on every calibration input and
    reduced to its mean and maximum; its speedup comes from the timing
    model at the first input's size.  Configurations are bucketed by their
    full identity (:attr:`ApproximationConfig.key`), not the figure label,
    so ones that differ only in work group calibrate independently.
    :meth:`repro.serve.controller.OnlineController.ladder` calls this too,
    so a controller's ladder is bit-identical to calibrating its
    configurations directly; each call records one ``session.calibrate``
    span.
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


def select(ladder: Sequence[CalibrationEntry], budget: float) -> CalibrationEntry | None:
    """The fastest rung of the fastest-first ``ladder`` admissible under ``budget``.

    ``None`` when no rung is admissible; a caller then runs the accurate
    configuration (a controller's ladder ends in it, so there it is
    always the answer of last resort).
    """
    if budget <= 0:
        raise TuningError(f"error budget must be positive, got {budget}")
    return next((entry for entry in ladder if entry.admissible(budget)), None)
