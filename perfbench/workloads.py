"""The benchmark's workloads: inputs, set-up, measured work and checks.

Every workload builds its inputs from the seed and hands the program only
the generated requests (or images).  Each one reports every end-to-end
metric, defined on that workload's unit of work:

``serve-distinct``
    One :class:`PerforationServer` with library defaults serves the five
    default serve apps at 64x64 to a single closed-loop caller.  Arrivals
    are Poisson at the generator's default rate and drive only the server's
    batching clock; no two requests share an input.
``fleet-hot``
    A :class:`PerforationFleet` with library defaults serves all six apps
    at 64x64.  The measured trace (bursty arrivals, four inputs per app) is
    one ``serve_trace`` batch job, run several times back to back; the
    first pays the cache misses, the median job is a hot one.
``autotune``
    A :class:`Tuner` (successive halving, fixed strategy seed, no tuning
    database, one engine thread) tunes all six apps at 256x256, one after
    another; a run makes several such passes on fresh engines.

Metric definitions (every workload prints all of them).  Times are
reference seconds: wall seconds scaled by the machine-speed probe taken at
both ends of each timed interval (see ``speed.py``); the report's notes
give the raw wall seconds next to them.

``throughput_per_s``
    Requests completed per second of the measured replay (serve-distinct)
    or of the median batch job (fleet-hot); Pareto fronts returned per
    second, ``6 / makespan_s`` (autotune).
``latency_p50_ms`` / ``latency_p95_ms``
    serve-distinct: from the start of a request's ``submit`` call to the
    return of the ``submit``/``drain`` call that delivered its response.
    fleet-hot: from the start of the job's ``serve_trace`` call to the
    response's arrival at the front-end, per job, median over the jobs.
    autotune: one app's ``tune`` call (median over passes), percentiles
    over the six apps.
``setup_s``
    Cold start to ready, median over several set-ups (one in this process,
    the others in fresh spawned processes), each with empty stores.
``peak_rss_mb``
    Peak resident memory of this process (the fleet's front-end) at the end
    of the measured work.
``modelled_speedup``
    Mean ``clsim.timing`` speedup of the configuration each completed
    request was served with (a strict-mode fallback counts as 1.0); for
    autotune, of the fastest tuned configuration admissible for each serve
    error budget (1.0 when none is).  Fixed by the seed; never wall time.
``makespan_s``
    Seconds of the measured work: the replay (serve-distinct), the median
    batch job (fleet-hot), the median six-app tuning pass -- the time to
    all six Pareto fronts (autotune).
``full_evals``
    Full-size kernel evaluations the work paid for: requests not answered
    from the result cache (serving), full-fidelity tuner evaluations summed
    over the six apps (autotune).  Fixed by the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from repro.api.engine import PerforationEngine
from repro.apps import available_applications, get_application
from repro.autotune import Tuner
from repro.autotune.space import config_key
from repro.core.config import ACCURATE_CONFIG, default_configurations
from repro.core.quality import compute_error
from repro.data import hotspot_single, single_image
from repro.data.images import ImageClass
from repro.fleet import PerforationFleet
from repro.serve import PerforationServer, TraceSpec, generate_trace
from repro.serve.loadgen import DEFAULT_SERVE_APPS

import layers
from speed import ReferenceClock

#: Serving input size, and the autotune input size.
SERVE_SIZE = 64
TUNE_SIZE = 256
#: Nominal rates that size each workload's measured work from ``--seconds``.
SERVE_DISTINCT_RPS = 16.0
FLEET_JOB_REQUESTS = 3000
FLEET_JOB_SECONDS = 4.0
TUNE_PASS_SECONDS = 6.0
#: serve-distinct times at least this many requests, so p95 has >= 10 beyond it.
MIN_TIMED_REQUESTS = 200
#: serve-distinct requests between two machine-speed probes (under a second
#: of work: the machine's speed changes within seconds).
PROBE_EVERY_REQUESTS = 10
#: Warm-up traces: a few inputs (reused), disjoint from the measured ones.
SERVE_WARMUP_REQUESTS = 40
FLEET_WARMUP_REQUESTS = 60
WARMUP_INPUTS_PER_APP = 2
#: Set-ups per measured run (the first in this process).
SETUP_SAMPLES = 3
#: Serve error budgets (the generator's mix) the autotune picks are scored at.
SERVE_BUDGETS = TraceSpec().error_budgets
#: Seconds a spawned set-up sample may take before it is killed.
SETUP_TIMEOUT_S = 150.0

TUNE_APPS = tuple(available_applications())
#: The checkout: the program's sources live under ``src/``.
ROOT = Path(__file__).resolve().parent.parent


def subseed(seed: int, *path: int) -> int:
    """An independent 32-bit seed for one stream of the workload's inputs."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def make_input(app: str, size: int, seed: int):
    if app == "hotspot":
        return hotspot_single(size=size, seed=seed)
    return single_image(ImageClass.NATURAL, size=size, seed=seed)


def calibration_inputs(apps, seed: int) -> dict:
    return {app: [make_input(app, SERVE_SIZE, subseed(seed, 1, i))] for i, app in enumerate(apps)}


def warmup_trace(apps, requests: int, seed: int, arrival_process: str) -> list:
    spec = TraceSpec(
        apps=tuple(apps),
        requests=requests,
        size=SERVE_SIZE,
        inputs_per_app=WARMUP_INPUTS_PER_APP,
        seed=subseed(seed, 2),
        arrival_process=arrival_process,
    )
    # Ids far above the measured trace's, so the two never collide.
    return [
        dataclasses.replace(r, request_id=10_000_000 + r.request_id) for r in generate_trace(spec)
    ]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class OutputChecker:
    """Checks served outputs against each app's NumPy reference.

    The reference is ``Application.reference`` -- NumPy code that does not
    use kernellang -- memoized per input object.
    """

    def __init__(self) -> None:
        self.apps = {name: get_application(name) for name in available_applications()}
        self._references: dict[int, tuple[object, np.ndarray]] = {}

    def reference(self, app: str, inputs) -> np.ndarray:
        cached = self._references.get(id(inputs))
        if cached is None or cached[0] is not inputs:
            cached = (inputs, self.apps[app].reference(inputs))
            self._references[id(inputs)] = cached
        return cached[1]

    def failures(self, requests, responses) -> int:
        """Requests without a served, within-budget output."""
        by_id = {r.request_id: r for r in responses}
        failed = 0
        for request in requests:
            response = by_id.get(request.request_id)
            if response is None or response.rejected or response.output is None:
                failed += 1
                continue
            app = self.apps[request.app]
            error = compute_error(
                self.reference(request.app, request.inputs), response.output, app.error_metric
            )
            if not error <= request.error_budget:
                failed += 1
        return failed + max(0, len(responses) - len(requests))


class SpeedupTable:
    """Modelled speedup of each (app, served configuration label)."""

    def __init__(self, apps, size: int) -> None:
        engine = PerforationEngine()
        self.table: dict[tuple[str, str], float] = {}
        for name in apps:
            app = engine.resolve_app(name)
            global_size = (size, size)
            baseline = engine.baseline_timing(app, global_size).total_time_s
            for config in [*default_configurations(app.halo), ACCURATE_CONFIG]:
                approx = engine.timing(app, config, global_size).total_time_s
                self.table[(name, config.label)] = baseline / approx

    def of(self, response) -> float:
        if response.fallback:
            return 1.0
        return self.table[(response.app, response.config_label)]


@dataclasses.dataclass
class Result:
    """One workload run: counts, metrics and the lines that explain them."""

    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool]] = dataclasses.field(default_factory=list)
    metrics: dict[str, float] = dataclasses.field(default_factory=dict)
    notes: list[str] = dataclasses.field(default_factory=list)
    backend: str = ""
    #: What ``attempted - failed`` counts, for the report.
    passed_what: str = "outputs within their error budget"

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok in self.checks)


# ---------------------------------------------------------------------------
# Workload plumbing shared by all three
# ---------------------------------------------------------------------------
class Workload:
    """Inputs from a seed; set-up; measured work; output checks."""

    name = ""

    def __init__(self, seed: int, seconds: float, run_dir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir

    # Hooks -------------------------------------------------------------
    def setup(self, slot: str):
        """Build the program and make it ready; returns the ready object."""
        raise NotImplementedError

    def measure(self, ready, result: Result, scale: float = 1.0) -> float:
        """Run the measured work on ``ready``; returns its wall seconds."""
        raise NotImplementedError

    def close(self, ready) -> None:
        pass

    def extra_layer_metrics(self, ready, result: Result) -> dict[str, float]:
        return {}

    # Shared run logic --------------------------------------------------
    spawns_workers = False
    recorder: layers.Recorder | None = None
    _window_end_ns = 0
    _paused_ns = 0

    def timed_setup(self, slot: str):
        """Set up; returns the ready object and the set-up's reference seconds."""
        clock = ReferenceClock()
        start = clock.now()
        ready = self.setup(slot)
        return ready, (clock.now() - start) * clock.scale()

    def end_window(self, result: Result) -> None:
        """The measured work is done: note peak memory and stop tracing."""
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        if self.recorder is not None and self.recorder.active:
            self.recorder.active = False
            self._window_end_ns = time.perf_counter_ns()

    @contextlib.contextmanager
    def untimed(self):
        """Harness work inside the traced window (inputs, checks): not traced,
        and taken out of the traced wall."""
        recorder = self.recorder
        if recorder is None or not recorder.active:
            yield
            return
        recorder.active = False
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._paused_ns += time.perf_counter_ns() - start
            recorder.active = True

    def mark(self, request) -> None:
        """Tag the spans that follow with the request (or job, or app) id."""
        if self.recorder is not None:
            self.recorder.request = request

    def begin_trace(self) -> None:
        pass

    def end_trace(self) -> None:
        pass

    def run(self) -> Result:
        """A measured run: set-up samples, then the measured work, untraced."""
        result = Result()
        samples = [
            spawned_setup_sample(self.name, self.seed, self.run_dir, k)
            for k in range(1, SETUP_SAMPLES)
        ]
        ready, own = self.timed_setup("main")
        samples.append(own)
        try:
            self.measure(ready, result)
        finally:
            self.close(ready)
        result.metrics["setup_s"] = statistics.median(samples)
        result.notes.append("setup_s samples: " + ", ".join(f"{s:.3f}" for s in samples) + " s")
        return result

    def run_traced(self, trace_path: Path) -> Result:
        """The traced run: a traced pass, then an untraced pass of equal size.

        The traced pass covers set-up and half the measured work; its wall
        is split into layer self times.  ``trace_overhead`` is the traced
        pass's measured-work wall over the untraced pass's.
        """
        result = Result()
        recorder = self.recorder = layers.Recorder().install()
        self.begin_trace()
        try:
            start = time.perf_counter_ns()
            recorder.active = True
            ready = self.setup("traced")
            try:
                traced_s = self.measure(ready, result, scale=0.5)
                wall_ns = self._window_end_ns - start - self._paused_ns
                extra = self.extra_layer_metrics(ready, result)
            finally:
                recorder.active = False
                self.close(ready)
        finally:
            recorder.restore()
            self.end_trace()
            self.recorder = None
        metrics = layers.layer_metrics(recorder, wall_ns)
        metrics.update(extra)
        if self.spawns_workers:
            # The traced fleet's workers are this process's only reaped
            # children so far.
            metrics["worker.peak_rss_mb"] = children_peak_rss_mb()
        for name, value in layers.SERVING_DEFAULTS.items():
            metrics.setdefault(name, value)
        recorder.write(trace_path)
        result.checks.append(
            (
                "layer self times cover all but 5% of the traced wall",
                metrics["unattributed_s"] <= 0.05 * metrics["trace.wall_s"],
            )
        )

        plain = Result()
        ready = self.setup("untraced")
        try:
            untraced_s = self.measure(ready, plain, scale=0.5)
        finally:
            self.close(ready)
        metrics["trace_overhead"] = traced_s / untraced_s
        result.attempted += plain.attempted
        result.failed += plain.failed
        result.checks += [(f"{name} (untraced pass)", ok) for name, ok in plain.checks]
        result.metrics = metrics
        result.notes.append(
            f"traced work {traced_s:.3f} s, untraced work {untraced_s:.3f} s; "
            f"spans written to {trace_path}"
        )
        return result


# ---------------------------------------------------------------------------
# serve-distinct
# ---------------------------------------------------------------------------
class ServeDistinct(Workload):
    name = "serve-distinct"
    apps = DEFAULT_SERVE_APPS

    def __init__(self, seed: int, seconds: float, run_dir: Path) -> None:
        super().__init__(seed, seconds, run_dir)
        self.calibration = calibration_inputs(self.apps, seed)
        self.warmup = warmup_trace(self.apps, SERVE_WARMUP_REQUESTS, seed, "poisson")
        self.checker = OutputChecker()
        self.speedups = SpeedupTable(self.apps, SERVE_SIZE)

    def trace(self, requests: int) -> list:
        """Poisson arrivals after the warm-up; every request its own input."""
        spec = TraceSpec(
            apps=self.apps,
            requests=requests,
            size=SERVE_SIZE,
            inputs_per_app=1,
            seed=subseed(self.seed, 3),
        )
        offset = self.warmup[-1].arrival_ms + 1000.0
        return [
            dataclasses.replace(
                r,
                inputs=make_input(r.app, SERVE_SIZE, subseed(self.seed, 4, r.request_id)),
                arrival_ms=r.arrival_ms + offset,
            )
            for r in generate_trace(spec)
        ]

    def setup(self, slot: str):
        server = PerforationServer(calibration_inputs=self.calibration)
        for app in self.apps:
            server.controller.ladder(app)
        for request in self.warmup:
            server.submit(request)
        server.drain(self.warmup[-1].arrival_ms)
        return server

    def measure(self, server, result: Result, scale: float = 1.0) -> float:
        requests = max(MIN_TIMED_REQUESTS, round(SERVE_DISTINCT_RPS * self.seconds))
        with self.untimed():
            trace = self.trace(max(1, round(requests * scale)))
        result.backend = server.backend.name
        clock = ReferenceClock(self.untimed)
        submitted: dict[int, float] = {}
        latencies: list[float] = []
        responses = []
        wall = raw = 0.0
        for first in range(0, len(trace), PROBE_EVERY_REQUESTS):
            block: list[float] = []
            start = clock.now()
            for request in trace[first : first + PROBE_EVERY_REQUESTS]:
                self.mark(request.request_id)
                submitted[request.request_id] = clock.now()
                delivered = server.submit(request)
                returned = clock.now()
                block.extend(returned - submitted.pop(r.request_id) for r in delivered)
                responses.extend(delivered)
            if first + PROBE_EVERY_REQUESTS >= len(trace):
                self.mark("drain")
                delivered = server.drain(trace[-1].arrival_ms)
                returned = clock.now()
                block.extend(returned - submitted.pop(r.request_id) for r in delivered)
                responses.extend(delivered)
                self.end_window(result)
            elapsed = clock.now() - start
            factor = clock.scale()
            raw += elapsed
            wall += elapsed * factor
            latencies.extend(latency * factor for latency in block)

        result.attempted += len(trace)
        result.failed += self.checker.failures(trace, responses)
        result.checks.append(("every request completed exactly once", len(responses) == len(trace)))
        self.last_responses = responses
        result.metrics.update(
            throughput_per_s=len(responses) / wall,
            latency_p50_ms=percentile(latencies, 50) * 1000.0,
            latency_p95_ms=percentile(latencies, 95) * 1000.0,
            modelled_speedup=float(np.mean([self.speedups.of(r) for r in responses])),
            makespan_s=wall,
            full_evals=sum(1 for r in responses if not r.cache_hit),
        )
        result.notes.append(
            f"{len(trace)} requests in {raw:.3f} wall s = {wall:.3f} reference s; "
            f"latency percentiles over {len(latencies)} requests; {clock.describe()}"
        )
        return wall

    def extra_layer_metrics(self, server, result: Result) -> dict[str, float]:
        counters = self.recorder.counters
        waits = [r.queue_delay_ms for r in self.last_responses]
        return {
            "serve.batches": counters["serve.batches"],
            "serve.batch_size_mean": layers.ratio(
                counters["serve.batched_requests"], counters["serve.batches"]
            ),
            "serve.batch_wait_ms_p50": percentile(waits, 50),
            "serve.batch_wait_samples": len(waits),
            "controller.switches": sum(
                s["switches"] for s in server.controller.snapshot().values()
            ),
        }


# ---------------------------------------------------------------------------
# fleet-hot
# ---------------------------------------------------------------------------
class FleetHot(Workload):
    name = "fleet-hot"
    apps = TUNE_APPS
    spawns_workers = True

    def __init__(self, seed: int, seconds: float, run_dir: Path) -> None:
        super().__init__(seed, seconds, run_dir)
        self.calibration = calibration_inputs(self.apps, seed)
        self.warmup = warmup_trace(self.apps, FLEET_WARMUP_REQUESTS, seed, "bursty")
        self.job = generate_trace(
            TraceSpec(
                apps=self.apps,
                requests=FLEET_JOB_REQUESTS,
                size=SERVE_SIZE,
                inputs_per_app=4,
                seed=subseed(self.seed, 3),
                arrival_process="bursty",
            )
        )
        self.checker = OutputChecker()
        self.speedups = SpeedupTable(self.apps, SERVE_SIZE)

    def setup(self, slot: str):
        fleet = PerforationFleet(
            calibration_inputs=self.calibration,
            # Above the per-shard request count: serve_trace sends the whole
            # trace at once, and shedding would depend on timing.
            max_pending=len(self.job) + 1,
            runtime_dir=self.run_dir / f"fleet-{slot}",
        )
        try:
            fleet.start()
            fleet.serve_trace(self.warmup)
        except BaseException:
            fleet.close()
            raise
        return fleet

    def close(self, fleet) -> None:
        fleet.close()

    def measure(self, fleet, result: Result, scale: float = 1.0) -> float:
        import repro.fleet.frontend as frontend

        jobs = max(1, round(self.seconds * scale / FLEET_JOB_SECONDS))
        result.backend = fleet.backend_name
        decode = frontend.response_from_wire
        arrived: list[int] = []

        def stamped(wire):
            # The one hook in measured runs: a clock read when each response
            # reaches the front-end.
            arrived.append(time.perf_counter_ns())
            return decode(wire)

        p50s: list[float] = []
        p95s: list[float] = []
        speedups: list[float] = []
        walls: list[float] = []
        raw: list[float] = []
        full_evals = completed = shed = 0
        clock = ReferenceClock(self.untimed)
        frontend.response_from_wire = stamped
        try:
            for job in range(jobs):
                self.mark(f"job-{job}")
                arrived.clear()
                start = time.perf_counter_ns()
                responses = fleet.serve_trace(self.job)
                raw.append((time.perf_counter_ns() - start) / 1e9)
                if job == jobs - 1:
                    self.end_window(result)
                factor = clock.scale()
                walls.append(raw[-1] * factor)
                with self.untimed():
                    latencies = [(t - start) / 1e6 * factor for t in arrived]
                    p50s.append(percentile(latencies, 50))
                    p95s.append(percentile(latencies, 95))
                    served = [r for r in responses if not r.rejected]
                    completed += len(served)
                    shed += len(responses) - len(served)
                    misses = sum(1 for r in served if not r.cache_hit)
                    full_evals += misses
                    self.cache_hits = len(served) - misses
                    speedups.extend(self.speedups.of(r) for r in served)
                    result.attempted += len(self.job)
                    result.failed += self.checker.failures(self.job, responses)
                    self.last_waits = [r.queue_delay_ms for r in served]
                    del responses, served
        finally:
            frontend.response_from_wire = decode
        result.checks.append(("no request shed or failed", shed == 0))
        result.checks.append(
            ("every request completed exactly once", completed == jobs * len(self.job))
        )
        makespan = statistics.median(walls)
        result.metrics.update(
            throughput_per_s=len(self.job) / makespan,
            latency_p50_ms=statistics.median(p50s),
            latency_p95_ms=statistics.median(p95s),
            modelled_speedup=float(np.mean(speedups)),
            makespan_s=makespan,
            full_evals=full_evals,
        )
        result.notes.append(
            f"{jobs} jobs of {len(self.job)} requests; job walls "
            + ", ".join(f"{w:.3f}" for w in raw)
            + " wall s = "
            + ", ".join(f"{w:.3f}" for w in walls)
            + f" reference s; latency percentiles per job over {len(self.job)} responses, "
            + f"median over jobs; {clock.describe()}"
        )
        return sum(walls)

    def begin_trace(self) -> None:
        from repro.obs import trace as obs_trace

        # Workers trace when the front-end traces at spawn time; their
        # serve.batch and clsim.launch spans come home on drained frames.
        self.tracer = obs_trace.install(capacity=1 << 20, process="front-end")

    def end_trace(self) -> None:
        from repro.obs import trace as obs_trace

        obs_trace.disable()

    def extra_layer_metrics(self, fleet, result: Result) -> dict[str, float]:
        rec = self.recorder
        metrics = layers.worker_metrics(self.tracer.spans())
        fleet_metrics = fleet.metrics()
        served = fleet_metrics.completed + fleet_metrics.shed + fleet_metrics.failed
        waits = self.last_waits
        metrics.update(
            {
                "wire.bytes_per_request": layers.ratio(rec.counters["wire.bytes"], served),
                "fleet.start_s": rec.total_ns["PerforationFleet.start"] / 1e9,
                "fleet.replayed": fleet_metrics.replayed,
                "serve.batch_wait_ms_p50": percentile(waits, 50),
                "serve.batch_wait_samples": len(waits),
                # Workers' result caches, read off the last job's responses.
                "result_cache.hit_ratio": layers.ratio(self.cache_hits, len(waits)),
            }
        )
        return metrics


# ---------------------------------------------------------------------------
# autotune
# ---------------------------------------------------------------------------
class Autotune(Workload):
    name = "autotune"
    apps = TUNE_APPS

    def __init__(self, seed: int, seconds: float, run_dir: Path) -> None:
        super().__init__(seed, seconds, run_dir)
        self.inputs = {
            app: make_input(app, TUNE_SIZE, subseed(seed, 5, i)) for i, app in enumerate(self.apps)
        }
        self.warmup_inputs = {
            app: make_input(app, SERVE_SIZE, subseed(seed, 6, i)) for i, app in enumerate(self.apps)
        }

    @staticmethod
    def tuner() -> Tuner:
        return Tuner(PerforationEngine(workers=1), seed=0, db=False)

    def setup(self, slot: str):
        tuner = self.tuner()
        for app, inputs in self.warmup_inputs.items():
            tuner.tune(app, inputs)
        return tuner

    def measure(self, tuner, result: Result, scale: float = 1.0) -> float:
        passes = max(1, round(self.seconds * scale / TUNE_PASS_SECONDS))
        result.backend = tuner.engine.backend.name
        totals: list[float] = []
        per_app: dict[str, list[float]] = {}
        fronts: list[dict[str, list[str]]] = []
        full_evals: list[int] = []
        picks: list[float] = []
        raw = 0.0
        clock = ReferenceClock(self.untimed)
        for k in range(passes):
            if k:
                with self.untimed():
                    tuner = self.tuner()  # fresh engine: no memo carried over
            tuned = {}
            total = 0.0
            for app, inputs in self.inputs.items():
                self.mark(f"pass-{k}:{app}")
                began = time.perf_counter()
                tuned[app] = tuner.tune(app, inputs)
                elapsed = time.perf_counter() - began
                if k == passes - 1 and app == self.apps[-1]:
                    self.end_window(result)
                raw += elapsed
                seconds = elapsed * clock.scale()
                per_app.setdefault(app, []).append(seconds)
                total += seconds
            totals.append(total)
            with self.untimed():
                fronts.append({app: front_keys(r) for app, r in tuned.items()})
                full_evals.append(sum(r.full_evaluations for r in tuned.values()))
                picks = [budget_pick(r, b) for r in tuned.values() for b in SERVE_BUDGETS]
        makespan = statistics.median(totals)
        latencies = [statistics.median(times) for times in per_app.values()]

        expected = grid_fronts(self.seed, self.inputs)
        mismatched = [app for app in self.apps if fronts[0][app] != expected[app]]
        result.attempted += passes * len(self.apps)
        result.failed += passes * len(mismatched)
        result.passed_what = "app tunes whose Pareto front equals the exhaustive grid's"
        result.checks.append(
            (
                "every pass finds the same fronts and evaluations",
                all(f == fronts[0] for f in fronts) and len(set(full_evals)) == 1,
            )
        )
        result.metrics.update(
            throughput_per_s=len(self.apps) / makespan,
            latency_p50_ms=percentile(latencies, 50) * 1000.0,
            latency_p95_ms=percentile(latencies, 95) * 1000.0,
            modelled_speedup=float(np.mean(picks)),
            makespan_s=makespan,
            full_evals=full_evals[0],
        )
        result.notes.append(
            f"{passes} passes: {raw:.3f} wall s = "
            + ", ".join(f"{t:.3f}" for t in totals)
            + f" reference s; latency percentiles over {len(latencies)} apps, "
            + f"each the median of {passes} tunes; "
            + clock.describe()
            + (f"; fronts differ from the grid on {mismatched}" if mismatched else "")
        )
        return sum(totals)


def front_keys(result) -> list[str]:
    return sorted(config_key(o.config) for o in result.front())


def budget_pick(result, budget: float) -> float:
    """Speedup of the tuner's pick for ``budget`` (1.0 when it has none)."""
    config = result.best_for_budget(budget)
    if config is None:
        return 1.0
    return next(entry.speedup for entry in result.ladder() if entry.config == config)


def grid_fronts(seed: int, inputs: dict) -> dict[str, list[str]]:
    """Exhaustive-grid fronts of the autotune inputs, stored per seed.

    The store key covers the seed and the program's source, so a changed
    program recomputes them.
    """
    source = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        source.update(path.relative_to(src).as_posix().encode())
        source.update(path.read_bytes())
    store = ROOT / ".perfbench-cache"
    path = store / f"grid-{seed}-{TUNE_SIZE}-{source.hexdigest()[:16]}.json"
    if path.exists():
        return json.loads(path.read_text())
    tuner = Autotune.tuner()
    fronts = {app: front_keys(tuner.tune(app, x, strategy="grid")) for app, x in inputs.items()}
    store.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(fronts))
    partial.replace(path)
    return fronts


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (ServeDistinct, FleetHot, Autotune)}


# ---------------------------------------------------------------------------
# Set-up samples in fresh processes
# ---------------------------------------------------------------------------
def setup_sample(name: str, seed: int, run_dir: str, index: int, conn) -> None:
    """Spawned-process target: one cold set-up of workload ``name``."""
    try:
        slot = f"sample-{index}"
        os.environ["REPRO_CODEGEN_CACHE"] = str(Path(run_dir).resolve() / slot / "codegen")
        os.environ["REPRO_TUNING_DB"] = str(Path(run_dir).resolve() / slot / "tuning-db")
        workload = WORKLOADS[name](seed, 1.0, Path(run_dir))
        ready, seconds = workload.timed_setup(slot)
        workload.close(ready)
        conn.send(seconds)
    finally:
        conn.close()


def spawned_setup_sample(name: str, seed: int, run_dir: Path, index: int) -> float:
    """Time one set-up in a fresh spawned process (cold imports and caches)."""
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=setup_sample, args=(name, seed, str(run_dir), index, sender))
    proc.start()
    sender.close()
    try:
        if not receiver.poll(SETUP_TIMEOUT_S):
            raise RuntimeError(f"set-up sample {index} of {name} timed out")
        return float(receiver.recv())
    finally:
        receiver.close()
        proc.join(SETUP_TIMEOUT_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
