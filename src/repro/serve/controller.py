"""Online perforation controller.

The controller is the online half of the quality-aware runtime (the
calibrate → select → monitor loop of SAGE, Samadi et al., MICRO 2013):
which :class:`~repro.core.config.ApproximationConfig` should a given
application's requests run with, under a given error budget?

Each application is calibrated once, offline-style on representative
inputs, by :func:`~repro.api.calibration.calibrate_configs` into a
*ladder* of configurations sorted fastest-first, terminated by the
accurate configuration (error 0, speedup 1).  A new (application, budget)
stream starts on the rung :func:`~repro.api.calibration.select` picks,
and the controller then walks that ladder online from monitored quality
feedback:

* **tighten** — when the exponentially weighted moving average of the
  measured error drifts above the budget, step down the ladder to the next
  configuration whose calibrated error is strictly lower (ultimately the
  accurate configuration, which cannot violate);
* **loosen** — when the EWMA sits well below the budget
  (``ewma < LOOSEN_HEADROOM * budget``) for at least :data:`MIN_DWELL`
  observations, step back up to the nearest faster configuration that
  calibration deems admissible under the budget
  (:meth:`~repro.api.calibration.CalibrationEntry.admissible`).

Every decision is a pure function of the observation sequence, so a
replayed trace reproduces the exact same configuration choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..api.calibration import CalibrationEntry, calibrate_configs, default_inputs, select
from ..core.config import ACCURATE_CONFIG, ApproximationConfig, default_configurations

#: Smoothing factor of the measured-error EWMA.
EWMA_ALPHA = 0.25

#: Loosen only when ``ewma < LOOSEN_HEADROOM * budget``.
LOOSEN_HEADROOM = 0.4

#: Minimum observations on the current configuration before loosening.
MIN_DWELL = 16


@dataclass
class _StreamState:
    """Controller state of one (application, budget) request stream."""

    index: int
    ewma: float | None = None
    since_switch: int = 0
    switches: int = 0
    tightened: int = 0
    loosened: int = 0


class OnlineController:
    """Chooses and adapts the configuration per (application, budget) stream.

    Parameters
    ----------
    engine:
        The :class:`~repro.api.engine.PerforationEngine` used for
        calibration sweeps (shared with the server, so references and
        timings are cached once).
    calibration_inputs:
        Optional mapping of application name to the representative inputs
        calibration should sweep; applications without an entry calibrate
        on their default sample input
        (:func:`~repro.api.calibration.default_inputs`).
    """

    def __init__(self, engine, calibration_inputs: Mapping[str, Sequence] | None = None) -> None:
        self.engine = engine
        self.calibration_inputs = dict(calibration_inputs or {})
        #: Application name → calibrated ladder.  :meth:`ladder` fills it on
        #: first use; a caller that already holds an application's ladder
        #: may seed it here, as a fleet worker does with the ladders its
        #: front-end ships.
        self.ladders: dict[str, list[CalibrationEntry]] = {}
        #: How many ladders :meth:`ladder` has calibrated itself (seeded
        #: ones do not count).
        self.calibrated = 0
        self._streams: dict[tuple[str, float], _StreamState] = {}

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def ladder(self, app_name: str) -> list[CalibrationEntry]:
        """The application's calibrated ladder (computed once, fastest first).

        The final rung is always the accurate configuration, so tightening
        terminates at a configuration that cannot violate any budget.
        """
        cached = self.ladders.get(app_name)
        if cached is not None:
            return cached
        app = self.engine.resolve_app(app_name)
        inputs = self.calibration_inputs.get(app_name)
        if inputs is None:
            inputs = [default_inputs(app)]
        entries = calibrate_configs(self.engine, app, inputs, default_configurations(app.halo))
        ladder = [
            *entries,  # already sorted fastest-first
            CalibrationEntry(config=ACCURATE_CONFIG, mean_error=0.0, max_error=0.0, speedup=1.0),
        ]
        self.ladders[app_name] = ladder
        self.calibrated += 1
        return ladder

    def _stream(self, app_name: str, budget: float) -> _StreamState:
        key = (app_name, budget)
        state = self._streams.get(key)
        if state is None:
            ladder = self.ladder(app_name)
            rung = select(ladder, budget)
            index = ladder.index(rung) if rung is not None else len(ladder) - 1
            state = self._streams[key] = _StreamState(index=index)
        return state

    # ------------------------------------------------------------------
    # Online operation
    # ------------------------------------------------------------------
    def choose(self, app_name: str, budget: float) -> ApproximationConfig:
        """The configuration the stream's next request should run with."""
        state = self._stream(app_name, budget)
        return self.ladder(app_name)[state.index].config

    def observe(self, app_name: str, budget: float, error: float) -> None:
        """Feed one request's measured error back into the stream's state."""
        state = self._stream(app_name, budget)
        ladder = self.ladder(app_name)
        state.ewma = (
            error if state.ewma is None else EWMA_ALPHA * error + (1 - EWMA_ALPHA) * state.ewma
        )
        state.since_switch += 1

        before = state.index
        if state.ewma > budget:
            self._tighten(state, ladder)
            if state.index != before:
                self._trace_decision("tighten", app_name, budget, ladder, state)
        elif (
            state.index > 0
            and state.since_switch >= MIN_DWELL
            and state.ewma < LOOSEN_HEADROOM * budget
        ):
            self._loosen(state, ladder, budget)
            if state.index != before:
                self._trace_decision("loosen", app_name, budget, ladder, state)

    def _trace_decision(
        self,
        action: str,
        app_name: str,
        budget: float,
        ladder: list[CalibrationEntry],
        state: _StreamState,
    ) -> None:
        """Record a config-switch decision as an instant span (out-of-band)."""
        from ..obs.trace import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            tracer.point(
                f"controller.{action}",
                category="serve",
                app=app_name,
                budget=budget,
                config=ladder[state.index].config.label,
            )

    def _switch(self, state: _StreamState, index: int) -> None:
        state.index = index
        state.ewma = None  # fresh observation window for the new config
        state.since_switch = 0
        state.switches += 1

    def _tighten(self, state: _StreamState, ladder: list[CalibrationEntry]) -> None:
        """Step to the first later rung with a strictly lower calibrated error.

        The ladder is sorted fastest-first, so that is the fastest
        configuration calibration deems more accurate than the current one;
        on the accurate rung there is none and the stream stays put.
        """
        current = ladder[state.index].mean_error
        for index in range(state.index + 1, len(ladder)):
            if ladder[index].mean_error < current:
                self._switch(state, index)
                state.tightened += 1
                return

    def _loosen(
        self, state: _StreamState, ladder: list[CalibrationEntry], budget: float
    ) -> None:
        """Step back to the nearest faster admissible rung, if any."""
        for index in range(state.index - 1, -1, -1):
            if ladder[index].admissible(budget):
                self._switch(state, index)
                state.loosened += 1
                return

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-stream view of the controller's current decisions."""
        return {
            f"{app}@{budget:g}": {
                "config": self.ladder(app)[state.index].config.label,
                "switches": state.switches,
                "tightened": state.tightened,
                "loosened": state.loosened,
            }
            for (app, budget), state in sorted(self._streams.items())
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<OnlineController apps={sorted(self.ladders)} "
            f"streams={len(self._streams)}>"
        )
