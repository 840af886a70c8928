"""Benchmark: observability overhead guard.

Serves the same deterministic trace twice — once with the tracer installed
(every span call site live) and once with the null tracer (the default) —
and records the throughput ratio.  The acceptance bar is the PR's headline
overhead promise: the *fully traced* run must stay within 3% of the
untraced run, which bounds the disabled-tracer cost (one attribute check
per call site) even more tightly.

The result cache is disabled so every request does real kernel work: the
gate then measures span cost relative to genuine serving, not relative to
dictionary lookups.  Runs are interleaved best-of-N so a noisy neighbour
mid-run hits both modes equally.

The JSON record feeds ``check_regression.py`` like every other benchmark;
``required_speedup`` holds the floor at 0.97 regardless of the committed
baseline.
"""

from __future__ import annotations

import time

from bench_utils import run_once

from repro.data import generate_image
from repro.obs import trace as obs_trace
from repro.serve import PerforationServer, TraceSpec, generate_trace

SPEC = TraceSpec(requests=96, size=64, inputs_per_app=3, seed=7)

#: Traced throughput must be >= 97% of untraced throughput.
REQUIRED_RATIO = 0.97

ROUNDS = 7


def _calibration_inputs(size=64):
    from repro.data import hotspot_single

    inputs = {}
    for app in SPEC.apps:
        if app == "hotspot":
            inputs[app] = [hotspot_single(size=size, seed=77)]
        else:
            inputs[app] = [generate_image("natural", size=size, seed=77)]
    return inputs


def _server() -> PerforationServer:
    return PerforationServer(
        max_batch=4,
        calibration_inputs=_calibration_inputs(),
        cache_capacity=0,  # no result cache: every request runs kernels
    )


def _serve_once(server: PerforationServer) -> float:
    """Serve the whole trace on a warm server; returns wall seconds."""
    trace = generate_trace(SPEC)
    start = time.perf_counter()
    responses = server.run_trace(trace)
    seconds = time.perf_counter() - start
    assert len(responses) == SPEC.requests
    return seconds


def _measure() -> tuple[float, float, int]:
    """Interleaved best-of-N on paired warm servers.

    One warm server per mode; untimed priming runs absorb calibration
    sweeps and lowering-cache fills.  Serving is deterministic and tracing
    is out-of-band, so both servers walk the *same* controller-state
    trajectory: round k does identical work in both modes, and the only
    difference inside the timed region is the instrumentation.  Best-of-N
    on each side then converges to the machine's noise floor for one and
    the same workload sequence.
    """
    obs_trace.disable()
    server_off = _server()
    _serve_once(server_off)
    try:
        obs_trace.install(process="bench")
        server_on = _server()
        _serve_once(server_on)

        best_off = best_on = float("inf")
        spans = 0
        for _ in range(ROUNDS):
            obs_trace.disable()
            best_off = min(best_off, _serve_once(server_off))
            tracer = obs_trace.install(process="bench")
            best_on = min(best_on, _serve_once(server_on))
            spans = max(spans, len(tracer))
    finally:
        obs_trace.disable()
    return best_off, best_on, spans


def test_tracing_overhead_within_bound(benchmark, archive, archive_json):
    best_off, best_on, spans = run_once(benchmark, _measure)

    ratio = best_off / best_on  # >= 1.0 means tracing cost nothing
    rps_off = SPEC.requests / best_off
    rps_on = SPEC.requests / best_on
    lines = [
        "Observability overhead, serve trace "
        f"({SPEC.requests} requests, {SPEC.size}x{SPEC.size}, no result cache, "
        f"best of {ROUNDS} interleaved)",
        f"tracing off : {best_off * 1e3:9.1f} ms  ({rps_off:7.1f} req/s)",
        f"tracing on  : {best_on * 1e3:9.1f} ms  ({rps_on:7.1f} req/s, "
        f"{spans} spans)",
        f"throughput ratio (on/off): {ratio:6.3f} "
        f"(required: >= {REQUIRED_RATIO})",
    ]
    archive("obs_overhead", "\n".join(lines))
    archive_json(
        "obs_overhead",
        {
            "benchmark": "obs_overhead",
            "app": "mixed",
            "backend": "traced",
            "baseline_backend": "untraced",
            "requests": SPEC.requests,
            "size": SPEC.size,
            "spans": spans,
            "seconds": {"untraced": best_off, "traced": best_on},
            "speedup": ratio,
            "required_speedup": REQUIRED_RATIO,
        },
    )

    assert spans > 0, "traced runs must actually record spans"
    assert ratio >= REQUIRED_RATIO
