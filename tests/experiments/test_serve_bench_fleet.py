"""``serve-bench``'s gates: the error-budget check every mode shares, and,
in fleet mode, the machine-aware scaling floor and the record the
regression gate consumes (the end-to-end fleet run itself is covered by
``tests/fleet/test_fleet.py``)."""

import numpy as np
import pytest

from repro.apps import get_application
from repro.data import generate_image
from repro.experiments import serve_bench
from repro.experiments.serve_bench import (
    FLEET_REPETITIONS,
    FLEET_SERVE_APPS,
    FleetBenchResult,
    ServeBenchResult,
    default_spec,
    fleet_record,
    fleet_required_speedup,
    render,
    within_budget,
)
from repro.serve import ServeMetrics, ServeRequest, ServeResponse


class TestBudgetGate:
    """The gate measures each served output against the application's NumPy
    reference itself, so an over-budget output fails however it was served."""

    def _served(self, scale=1.0):
        image = generate_image("natural", size=16, seed=3)
        trace = [
            ServeRequest(request_id=i, app="gaussian", inputs=image, error_budget=0.05)
            for i in range(3)
        ]
        reference = get_application("gaussian").reference(image)
        responses = [
            ServeResponse(
                request_id=request.request_id,
                app="gaussian",
                config_label="Accurate",
                output=np.array(reference),
                error=0.0,
            )
            for request in trace
        ]
        responses[1].output *= scale
        return trace, responses

    def test_outputs_within_budget_pass(self):
        assert within_budget(*self._served())

    def test_one_over_budget_output_fails_the_run(self):
        trace, responses = self._served(scale=1.5)  # 50% error on one output
        assert not within_budget(trace, responses)
        metrics = ServeMetrics()
        metrics.completed = len(trace)
        metrics.finish(1.0)
        slow = ServeMetrics()
        slow.completed = len(trace)
        slow.finish(100.0)
        result = ServeBenchResult(
            spec=default_spec(quick=True),
            max_batch=8,
            batched=metrics,
            serial=slow,
            batched_within_budget=within_budget(trace, responses),
            serial_within_budget=True,
        )
        assert result.speedup >= 5.0
        assert "result: FAIL" in render(result)

    def test_a_response_without_output_fails(self):
        trace, responses = self._served()
        responses[2].output = None
        assert not within_budget(trace, responses)


class TestRequiredSpeedup:
    def test_floor_scales_with_effective_workers(self):
        assert fleet_required_speedup(4, cpus=8) == 2.5
        assert fleet_required_speedup(8, cpus=4) == 2.5
        assert fleet_required_speedup(3, cpus=8) == 1.8
        assert fleet_required_speedup(2, cpus=2) == 1.3
        assert fleet_required_speedup(4, cpus=1) == 0.6

    def test_oversubscription_never_raises_the_bar(self):
        # Extra workers beyond the core count cannot add parallelism, so
        # they must not tighten the requirement either.
        for cpus in (1, 2, 4):
            at_cpus = fleet_required_speedup(cpus, cpus=cpus)
            assert fleet_required_speedup(cpus * 4, cpus=cpus) == at_cpus


class TestFleetRecord:
    def _result(self):
        fleet = ServeMetrics()
        single = ServeMetrics()
        for metrics, wall in ((fleet, 2.0), (single, 4.0)):
            for _ in range(10):
                metrics.completed += 1
            metrics.finish(wall)
        return FleetBenchResult(
            spec=default_spec(quick=True, apps=FLEET_SERVE_APPS),
            workers=4,
            cpu_count=2,
            max_batch=8,
            fleet=fleet,
            single=single,
            bit_identical=True,
            fleet_within_budget=True,
            single_within_budget=True,
            required_speedup=fleet_required_speedup(4, cpus=2),
            ratios=[fleet.throughput_rps / single.throughput_rps],
        )

    def test_record_declares_its_own_floor(self):
        record = fleet_record(self._result())
        assert record["benchmark"] == "fleet_scaling"
        assert record["speedup"] == 2.0  # 5 rps over 2.5 rps
        assert record["required_speedup"] == 1.3  # 2 effective workers
        assert record["scaling_efficiency"] == 1.0  # 2.0x over 2 cores
        assert record["workers"] == 4 and record["cpu_count"] == 2
        assert record["violation_rate"] == 0.0
        assert record["shed"] == 0 and record["cold_calibration_evals"] == 0

    def test_record_gates_the_median_of_every_repetition(self):
        result = self._result()
        result.ratios = [0.73, 1.62, 1.39, 1.73, 1.5]
        record = fleet_record(result)
        assert record["speedup"] == 1.5
        assert record["ratios"] == [0.73, 1.62, 1.39, 1.73, 1.5]
        assert record["repetitions"] == 5

    def test_passed_requires_every_guarantee(self):
        result = self._result()
        assert result.passed
        result.bit_identical = False
        assert not result.passed
        result.bit_identical = True
        result.fleet.shed = 1
        assert not result.passed
        result.fleet.shed = 0
        result.cold_evaluations = 1
        assert not result.passed


class TestRepetitions:
    """A quick trace lasts about 0.1 s, so one run of it is too noisy to
    gate: quick runs take the median of the same repetitions as full-size
    runs, and only a chaos run serves the trace once."""

    RATIOS = [1.15, 2.06, 1.2, 1.8, 1.5]

    def _stub(self, monkeypatch):
        calls = []

        def fleet_once(trace, spec, calibration, max_batch, device, workers, chaos):
            ratio = self.RATIOS[len(calls)]
            calls.append(chaos)
            fleet, single = ServeMetrics(), ServeMetrics()
            fleet.completed = single.completed = len(trace)
            fleet.finish(1.0 / ratio)
            single.finish(1.0)
            return {
                "fleet": fleet,
                "single": single,
                "bit_identical": True,
                "fleet_within_budget": True,
                "single_within_budget": True,
                "calibrated": 0,
                "respawns": 0,
            }

        monkeypatch.setattr(serve_bench, "_fleet_once", fleet_once)
        return calls

    def test_a_quick_run_gates_the_median_of_every_repetition(self, monkeypatch):
        calls = self._stub(monkeypatch)
        result = serve_bench.run_fleet(quick=True, workers=2)
        assert len(calls) == FLEET_REPETITIONS
        assert result.ratios == pytest.approx(self.RATIOS)
        assert result.speedup == pytest.approx(1.5)
        # The reported metrics are the median run's.
        assert result.fleet.throughput_rps / result.single.throughput_rps == pytest.approx(1.5)
        assert result.required_speedup == fleet_required_speedup(2)

    def test_a_chaos_run_serves_the_trace_once(self, monkeypatch):
        calls = self._stub(monkeypatch)
        result = serve_bench.run_fleet(quick=True, workers=2, chaos=True)
        assert calls == [True]
        assert result.ratios == pytest.approx(self.RATIOS[:1])
        assert result.required_speedup == 0.0
