"""Fleet mode of ``serve-bench``: the machine-aware scaling floor and the
record the regression gate consumes (the end-to-end fleet run itself is
covered by ``tests/fleet/test_fleet.py``)."""

from repro.experiments.serve_bench import (
    FLEET_SERVE_APPS,
    FleetBenchResult,
    default_spec,
    fleet_record,
    fleet_required_speedup,
)
from repro.serve import ServeMetrics


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
        result.warm_reports = [{"db": {"misses": 3, "puts": 3, "hits": 0}}]
        assert not result.passed
