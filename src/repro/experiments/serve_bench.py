"""``serve-bench`` — serving-throughput benchmark of the ``repro.serve`` subsystem.

Generates a deterministic mixed multi-application trace
(:mod:`repro.serve.loadgen`) and serves it twice:

* **batched-codegen** — the serving fast path: micro-batched stacked
  launches on the codegen backend, online controller, result cache;
* **serial-interpreter** — the baseline: the same trace, one request at a
  time (``max_batch=1``) on the reference interpreter backend, no result
  cache (every request executes).

The figure of merit is the throughput ratio; the acceptance bar is >= 5x
while every request is served with an output whose error, measured afresh
against the application's NumPy reference (:func:`within_budget`), stays
within its budget.

Run it via ``python -m repro.experiments serve-bench`` (``--quick`` for the
CI smoke configuration); the report is also written to
``benchmarks/results/serve_bench.txt``.

With ``--workers N`` (N >= 2) the benchmark switches to **fleet mode**
(:mod:`repro.fleet`): the same trace is served once by a single-process
batched server and once by an N-worker fleet, and the figure of merit is
the fleet-over-single throughput ratio — with outputs required to stay
bit-identical, zero requests shed, and zero cold-worker calibration
sweeps.  The scaling bar is machine-aware (:func:`fleet_required_speedup`):
2.5x when at least four CPUs back four workers, proportionally less on
smaller machines (a 1-CPU container cannot scale by adding processes, so
it only has to stay close to parity).  One trace takes well under a
second of wall (a quick one about 0.1 s), so full-size and quick runs
alike time :data:`FLEET_REPETITIONS` independent repetitions, each with a
fresh fleet and a fresh single server, and gate the *median* ratio.  A
full-size run records
``benchmarks/results/fleet_scaling.json`` with every per-run ratio, which
``benchmarks/check_regression.py`` gates — the record carries its own
machine-appropriate ``required_speedup`` floor.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from pathlib import Path

from ..api.engine import PerforationEngine
from ..apps import get_application
from ..core.quality import compute_error
from ..serve import PerforationServer, ServeMetrics, TraceSpec, generate_trace

#: Required throughput ratio of batched-codegen over serial-interpreter.
REQUIRED_SPEEDUP = 5.0

#: Default location of the written report.
DEFAULT_RESULTS_PATH = Path("benchmarks") / "results" / "serve_bench.txt"

#: Fleet-mode report / machine-readable record locations.
FLEET_RESULTS_PATH = Path("benchmarks") / "results" / "fleet_scaling.txt"
FLEET_RECORD_PATH = Path("benchmarks") / "results" / "fleet_scaling.json"

#: Independent fleet-vs-single repetitions of a fleet run, full-size or
#: quick; a chaos run serves the trace once.
FLEET_REPETITIONS = 5

#: Fleet mode serves all six built-in applications so the planned
#: placement has enough distinct shard keys to balance four workers.
FLEET_SERVE_APPS: tuple[str, ...] = (
    "gaussian",
    "sobel3",
    "sobel5",
    "median",
    "inversion",
    "hotspot",
)


def fleet_required_speedup(workers: int, cpus: int | None = None) -> float:
    """The machine-aware fleet scaling floor.

    Process-level parallelism cannot beat the physical core count, so the
    bar scales with ``min(workers, cpus)``: the full 2.5x applies when at
    least four cores back four workers; a two-core machine must clear
    1.3x; a single-core machine cannot scale at all — oversubscribed
    workers time-slice the core and pay IPC on top — so it only has to
    stay within striking distance of parity (0.6x).
    """
    effective = min(int(workers), cpus if cpus else (os.cpu_count() or 1))
    if effective >= 4:
        return 2.5
    if effective == 3:
        return 1.8
    if effective == 2:
        return 1.3
    return 0.6


def default_spec(quick: bool = False, **overrides) -> TraceSpec:
    """The benchmark's trace specification (``quick`` shrinks everything)."""
    base = dict(requests=10, size=32, inputs_per_app=2) if quick else dict(
        requests=40, size=64, inputs_per_app=3
    )
    base.update({k: v for k, v in overrides.items() if v is not None})
    return TraceSpec(**base)


@dataclass
class ServeBenchResult:
    """Everything the report renders."""

    spec: TraceSpec
    max_batch: int
    batched: ServeMetrics
    serial: ServeMetrics
    batched_within_budget: bool
    serial_within_budget: bool

    @property
    def speedup(self) -> float:
        return self.batched.throughput_rps / self.serial.throughput_rps

    @property
    def passed(self) -> bool:
        return (
            self.speedup >= REQUIRED_SPEEDUP
            and self.batched_within_budget
            and self.serial_within_budget
        )


def _calibration_inputs(spec: TraceSpec) -> dict:
    """Calibrate the controller on inputs of the serving size.

    One representative input per application, distinct from the trace's
    input pools (different seed), so calibration is honest about unseen
    requests.
    """
    from ..data import hotspot_single, single_image
    from ..data.images import ImageClass

    inputs = {}
    for app in spec.apps:
        seed = spec.seed + 5897
        if app == "hotspot":
            inputs[app] = [hotspot_single(size=spec.size, seed=seed)]
        else:
            inputs[app] = [single_image(ImageClass.NATURAL, size=spec.size, seed=seed)]
    return inputs


def within_budget(trace, responses) -> bool:
    """Whether every response serves an output within its request's budget.

    Each output's error is measured afresh against the application's NumPy
    reference (:meth:`Application.reference
    <repro.apps.base.Application.reference>`), not read off the server, so
    a server that served an over-budget output fails the gate.  A response
    without an output (shed or failed) fails it too.
    """
    requests = {request.request_id: request for request in trace}
    references: dict[int, object] = {}  # by input object: trace inputs repeat
    for response in responses:
        if response.rejected or response.output is None:
            return False
        request = requests[response.request_id]
        app = get_application(request.app)
        reference = references.get(id(request.inputs))
        if reference is None:
            reference = references[id(request.inputs)] = app.reference(request.inputs)
        error = compute_error(reference, response.output, app.error_metric)
        if not error <= request.error_budget:
            return False
    return True


def _serve(
    trace,
    spec: TraceSpec,
    backend: str,
    max_batch: int,
    cache_capacity: int,
    device=None,
    workers: int | str = 1,
):
    server = PerforationServer(
        engine=PerforationEngine(device=device, workers=workers, backend=backend),
        max_batch=max_batch,
        calibration_inputs=_calibration_inputs(spec),
        cache_capacity=cache_capacity,
    )
    responses = server.run_trace(trace)
    return server.metrics, within_budget(trace, responses)


def run(
    quick: bool = False,
    requests: int | None = None,
    size: int | None = None,
    seed: int | None = None,
    max_batch: int = 8,
    device=None,
    workers: int | str = 1,
) -> ServeBenchResult:
    """Serve the trace on both configurations and collect the metrics.

    ``device``/``workers`` configure the engines of both servers; the
    backends are fixed by the benchmark's design (codegen-batched vs.
    serial-interpreter).
    """
    spec = default_spec(quick=quick, requests=requests, size=size, seed=seed)
    trace = generate_trace(spec)
    batched, batched_ok = _serve(
        trace,
        spec,
        backend="codegen",
        max_batch=max_batch,
        cache_capacity=256,
        device=device,
        workers=workers,
    )
    # The baseline forgoes every serving optimisation: no micro-batching,
    # no result cache, reference interpreter backend.
    serial, serial_ok = _serve(
        trace,
        spec,
        backend="interpreter",
        max_batch=1,
        cache_capacity=0,
        device=device,
        workers=workers,
    )
    return ServeBenchResult(
        spec=spec,
        max_batch=max_batch,
        batched=batched,
        serial=serial,
        batched_within_budget=batched_ok,
        serial_within_budget=serial_ok,
    )


def render(result: ServeBenchResult) -> str:
    spec = result.spec
    lines = [
        "serve-bench: micro-batched codegen serving vs one-at-a-time "
        "interpreter serving",
        f"trace: {spec.requests} requests over {len(spec.apps)} apps "
        f"({', '.join(spec.apps)}), {spec.size}x{spec.size} inputs, "
        f"{spec.arrival_rate_hz:g} req/s arrivals, seed {spec.seed}; "
        f"max batch {result.max_batch}",
        "",
        "[batched-codegen]",
        result.batched.describe(),
        "",
        "[serial-interpreter]",
        result.serial.describe(),
        "",
        f"throughput speedup: {result.speedup:.2f}x "
        f"(required >= {REQUIRED_SPEEDUP:g}x)",
        f"all completed requests within error budget: "
        f"batched={result.batched_within_budget}, "
        f"serial={result.serial_within_budget}",
        f"result: {'PASS' if result.passed else 'FAIL'}",
    ]
    return "\n".join(lines)


def write_report(result: ServeBenchResult, path: str | Path | None = None) -> Path:
    """Write the rendered report under ``benchmarks/results/``."""
    path = Path(path) if path is not None else DEFAULT_RESULTS_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render(result) + "\n")
    return path


# ----------------------------------------------------------------------
# Fleet mode (--workers N >= 2)
# ----------------------------------------------------------------------
@dataclass
class FleetBenchResult:
    """Fleet-vs-single-process comparison on the same trace."""

    spec: TraceSpec
    workers: int
    cpu_count: int
    max_batch: int
    #: Metrics of the repetition whose ratio is the median.
    fleet: ServeMetrics
    single: ServeMetrics
    bit_identical: bool
    fleet_within_budget: bool
    single_within_budget: bool
    required_speedup: float
    #: Fleet-over-single throughput ratio of every repetition, in run order.
    ratios: list
    #: Ladders the workers calibrated themselves, counted by each worker
    #: after the trace and summed over every repetition, initial and
    #: respawned workers alike: 0 means every worker served from the
    #: ladders the front-end shipped.
    cold_evaluations: int = 0
    #: Workers respawned by recovery, over every repetition.
    respawns: int = 0
    chaos: bool = False

    @property
    def speedup(self) -> float:
        """Median ratio over the repetitions."""
        return statistics.median(self.ratios)

    @property
    def exact_accounting(self) -> bool:
        """``completed + shed + failed == len(trace)`` — no request lost."""
        total = self.fleet.completed + self.fleet.shed + self.fleet.failed
        return total == self.spec.requests

    @property
    def passed(self) -> bool:
        ok = (
            self.speedup >= self.required_speedup
            and self.bit_identical
            and self.fleet_within_budget
            and self.single_within_budget
            and self.fleet.shed == 0
            and self.cold_evaluations == 0
            and self.exact_accounting
        )
        if self.chaos:
            # The chaos smoke must actually have killed a worker, and
            # recovery must have completed every request regardless.
            ok = ok and self.fleet.worker_failures >= 1 and self.fleet.failed == 0
        return ok


def run_fleet(
    quick: bool = False,
    requests: int | None = None,
    size: int | None = None,
    seed: int | None = None,
    max_batch: int = 8,
    device=None,
    workers: int = 2,
    chaos: bool = False,
) -> FleetBenchResult:
    """Serve the trace on an N-worker fleet and on one in-process server.

    Both sides calibrate the same ladders from the same inputs before they
    serve (the fleet's front-end once, for every worker; the single server
    in process), so the measured walls compare *serving*, not calibration.
    The fleet must reproduce the single server's outputs bit-identically,
    shed nothing, and leave every worker with zero self-calibrated ladders
    — in every repetition (:data:`FLEET_REPETITIONS` of them, each with a
    fresh fleet and a fresh single server; the gated speedup is their
    median ratio).

    ``chaos=True`` kills worker 0 (hard exit) after its first served
    request: the run then exercises detection, respawn-and-replay, and the
    exact-accounting invariant, and passes only if at least one worker
    failure was recovered with zero failed requests and outputs still
    bit-identical.  Chaos runs waive the throughput bar (recovery replays
    work, so the wall is not a scaling measurement) and never write the
    regression-gated record.
    """
    spec = default_spec(
        quick=quick, requests=requests, size=size, seed=seed, apps=FLEET_SERVE_APPS
    )
    trace = generate_trace(spec)
    calibration = _calibration_inputs(spec)
    repetitions = 1 if chaos else FLEET_REPETITIONS
    runs = [
        _fleet_once(trace, spec, calibration, max_batch, device, workers, chaos)
        for _ in range(repetitions)
    ]
    ratios = [run["fleet"].throughput_rps / run["single"].throughput_rps for run in runs]
    median_run = runs[sorted(range(repetitions), key=ratios.__getitem__)[repetitions // 2]]
    return FleetBenchResult(
        spec=spec,
        workers=int(workers),
        cpu_count=os.cpu_count() or 1,
        max_batch=max_batch,
        fleet=median_run["fleet"],
        single=median_run["single"],
        bit_identical=all(run["bit_identical"] for run in runs),
        fleet_within_budget=all(run["fleet_within_budget"] for run in runs),
        single_within_budget=all(run["single_within_budget"] for run in runs),
        required_speedup=0.0 if chaos else fleet_required_speedup(workers),
        ratios=ratios,
        cold_evaluations=sum(run["calibrated"] for run in runs),
        respawns=sum(run["respawns"] for run in runs),
        chaos=chaos,
    )


def _fleet_once(trace, spec, calibration, max_batch, device, workers, chaos) -> dict:
    """One repetition: a fresh fleet, then a fresh single server.

    The process-wide kernel-build cache is emptied first, so the single
    server builds its kernels as cold as the fresh fleet's workers do.
    """
    from ..core.perforator import build_kernel
    from ..fleet import PerforationFleet

    build_kernel.cache_clear()

    chaos_kwargs = (
        dict(fail_after={0: 1}, request_timeout_s=120.0, max_respawns=3)
        if chaos
        else {}
    )
    fleet = PerforationFleet(
        workers=workers,
        device=device,
        max_batch=max_batch,
        calibration_inputs=calibration,
        **chaos_kwargs,
    )
    try:
        fleet.start()
        fleet_responses = fleet.serve_trace(trace)
        fleet_metrics = fleet.metrics()
        # A degraded shard cannot report; it also fails the bit-identity gate.
        calibrated = sum(
            worker["controller"]["calibrated"]
            for worker in fleet.worker_metrics()
            if worker["controller"] is not None
        )
        respawns = len(fleet.respawn_reports)
    finally:
        fleet.close()

    # Single-process reference: it calibrates its ladders from the same
    # inputs before run_trace, so its wall, like the fleet's, measures
    # serving only.
    single = PerforationServer(
        engine=PerforationEngine(device=device, backend="codegen"),
        max_batch=max_batch,
        calibration_inputs=calibration,
        cache_capacity=256,
    )
    for app in spec.apps:
        single.controller.ladder(app)
    single_responses = single.run_trace(trace)

    reference = {r.request_id: r for r in single_responses}
    bit_identical = len(fleet_responses) == len(reference) and all(
        not r.rejected
        and r.output is not None
        and r.config_label == reference[r.request_id].config_label
        and r.error == reference[r.request_id].error
        and r.output.dtype == reference[r.request_id].output.dtype
        and r.output.shape == reference[r.request_id].output.shape
        and r.output.tobytes() == reference[r.request_id].output.tobytes()
        for r in fleet_responses
    )
    return {
        "fleet": fleet_metrics,
        "single": single.metrics,
        "bit_identical": bit_identical,
        "fleet_within_budget": within_budget(trace, fleet_responses),
        "single_within_budget": within_budget(trace, single_responses),
        "calibrated": calibrated,
        "respawns": respawns,
    }


def render_fleet(result: FleetBenchResult) -> str:
    spec = result.spec
    effective = min(result.workers, result.cpu_count)
    mode = " --chaos (worker 0 killed after its first request)" if result.chaos else ""
    runs = ""
    if len(result.ratios) > 1:
        ratios = ", ".join(f"{ratio:.2f}x" for ratio in result.ratios)
        runs = f"(median of {len(result.ratios)} runs: {ratios}; metrics above: the median run) "
    lines = [
        f"serve-bench --workers {result.workers}{mode}: fleet serving vs one "
        "in-process batched server",
        f"trace: {spec.requests} requests over {len(spec.apps)} apps "
        f"({', '.join(spec.apps)}), {spec.size}x{spec.size} inputs, "
        f"{spec.arrival_rate_hz:g} req/s arrivals, seed {spec.seed}; "
        f"max batch {result.max_batch}",
        f"machine: {result.cpu_count} CPUs -> {effective} effective workers, "
        f"required >= {result.required_speedup:g}x",
        "",
        f"[fleet-{result.workers}x]",
        result.fleet.describe(),
        "",
        "[single-process]",
        result.single.describe(),
        "",
        f"throughput speedup: {result.speedup:.2f}x {runs}"
        f"(required >= {result.required_speedup:g}x"
        + (", waived under chaos)" if result.chaos else ")"),
        f"outputs bit-identical to single process: {result.bit_identical}",
        f"requests shed: {result.fleet.shed}",
        f"accounting exact (completed + shed + failed == trace): "
        f"{result.exact_accounting}",
        f"cold-worker calibration evaluations: {result.cold_evaluations} "
        f"(ladders the workers calibrated instead of using the front-end's)",
    ]
    if result.chaos or result.fleet.worker_failures:
        lines.append(
            f"resilience: {result.fleet.worker_failures} worker failures, "
            f"{result.fleet.replayed} requests replayed, "
            f"{result.fleet.failed} failed, "
            f"{result.respawns} respawns"
        )
    lines.extend(
        [
            f"all completed requests within error budget: "
            f"fleet={result.fleet_within_budget}, single={result.single_within_budget}",
            f"result: {'PASS' if result.passed else 'FAIL'}",
        ]
    )
    return "\n".join(lines)


def fleet_record(result: FleetBenchResult) -> dict:
    """The machine-readable record ``check_regression.py`` gates.

    The record self-declares its ``required_speedup``: the regression gate
    takes the max of this and the baseline's floor, so a many-core CI
    machine is held to the full 2.5x bar even though the baseline may have
    been recorded on a smaller box.
    """
    return {
        "benchmark": "fleet_scaling",
        "app": "mixed",
        "backend": "fleet-codegen",
        "baseline_backend": "codegen",
        "speedup": round(result.speedup, 4),
        "required_speedup": result.required_speedup,
        "workers": result.workers,
        "cpu_count": result.cpu_count,
        "scaling_efficiency": round(
            result.speedup / min(result.workers, result.cpu_count), 4
        ),
        "requests": result.spec.requests,
        "image_size": result.spec.size,
        "bit_identical": result.bit_identical,
        "shed": result.fleet.shed,
        "cold_calibration_evals": result.cold_evaluations,
        # Strict mode substitutes the accurate output on violation, so the
        # *served* violation rate is 0 by construction; this is the
        # pre-fallback rate the controller observed.
        "violation_rate": round(
            result.fleet.violations / max(result.fleet.completed, 1), 4
        ),
        "fleet_throughput_rps": round(result.fleet.throughput_rps, 4),
        "single_throughput_rps": round(result.single.throughput_rps, 4),
        "repetitions": len(result.ratios),
        "ratios": [round(ratio, 4) for ratio in result.ratios],
    }


def write_fleet_report(
    result: FleetBenchResult,
    path: str | Path | None = None,
    record: bool = True,
) -> Path:
    """Write the fleet report; also the JSON record unless ``record=False``.

    Quick runs pass ``record=False`` so a smoke configuration never
    overwrites the full-size record the regression gate compares; chaos
    runs never write it regardless (their wall clock includes recovery
    replay, which is not a scaling measurement).
    """
    import json

    path = Path(path) if path is not None else FLEET_RESULTS_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_fleet(result) + "\n")
    if record and not result.chaos:
        FLEET_RECORD_PATH.parent.mkdir(parents=True, exist_ok=True)
        FLEET_RECORD_PATH.write_text(json.dumps(fleet_record(result), indent=2) + "\n")
    return path
