"""Outside-in per-layer tracing for the benchmark's traced run.

The program is traced from the outside: :class:`Recorder` replaces the
public functions and methods of each layer with thin wrappers that record
one span per call (label, start, duration, parent, request id).  A name is
patched everywhere it is looked up -- ``repro.serve.server.compute_error``
as well as ``repro.core.quality.compute_error`` -- and every patch is undone
by :meth:`Recorder.restore`.

A span's *self time* is its duration minus the time its wrapped children
cover.  Spans nest on one thread (the benchmark's main thread; calls from
other threads pass straight through), so the layers' self times plus the
time no span covers add up to the traced wall exactly.  Awaits on the fleet
front-end's event loop are not spans: the loop's idle time is measured
where it blocks, in the selector's ``select`` call, and booked as IPC wait.

Which end-to-end metric each layer's figures should move, and where:

* perforator, parse, launch, reference, error: throughput and latency on
  serve-distinct (no change predicted on fleet-hot or autotune);
* lowering: ``setup_s`` on serve-distinct and fleet-hot;
* server, scheduler, controller, result_cache: latency and throughput on
  serve-distinct, fleet-hot throughput through ``worker.busy_s``;
* fleet, wire, ipc, worker: throughput, ``setup_s`` and ``peak_rss_mb`` on
  fleet-hot;
* tune, approximate, timing, pareto: ``makespan_s``, throughput and
  ``full_evals`` on autotune, and ``setup_s`` of the serving workloads
  (calibration runs the same sweep path).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import selectors
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: (module, owner or None for a module function, attribute, layer).
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.perforator", "KernelPerforator", "perforate", "perforator"),
    ("repro.core.perforator", "KernelPerforator", "accurate", "perforator"),
    ("repro.core.perforator", "PerforatedKernel", "executable", "perforator"),
    ("repro.kernellang.parser", None, "parse_program", "parse"),
    ("repro.kernellang.transforms.pass_manager", None, "parse_statements", "parse"),
    ("repro.kernellang.lexer", None, "tokenize", "parse"),
    ("repro.kernellang.vectorize", None, "vectorized_kernel", "lowering"),
    ("repro.kernellang.codegen", None, "codegen_kernel", "lowering"),
    ("repro.kernellang.codegen", "CodegenKernel", "function", "lowering"),
    ("repro.api.artifacts", "ArtifactCache", "get", "lowering"),
    ("repro.clsim.executor", "Executor", "run", "launch"),
    ("repro.clsim.executor", "Executor", "run_batch", "launch"),
    ("repro.api.engine", "PerforationEngine", "reference", "reference"),
    ("repro.core.quality", None, "compute_error", "error"),
    ("repro.serve.server", "PerforationServer", "submit", "server"),
    ("repro.serve.server", "PerforationServer", "poll", "server"),
    ("repro.serve.server", "PerforationServer", "drain", "server"),
    ("repro.serve.scheduler", "MicroBatchScheduler", "submit", "scheduler"),
    ("repro.serve.scheduler", "MicroBatchScheduler", "ready", "scheduler"),
    ("repro.serve.scheduler", "MicroBatchScheduler", "flush", "scheduler"),
    ("repro.serve.controller", "OnlineController", "choose", "controller"),
    ("repro.serve.controller", "OnlineController", "observe", "controller"),
    ("repro.serve.controller", "OnlineController", "ladder", "controller"),
    ("repro.serve.cache", "ServeResultCache", "key", "result_cache"),
    ("repro.serve.cache", "ServeResultCache", "get", "result_cache"),
    ("repro.serve.cache", "ServeResultCache", "put", "result_cache"),
    ("repro.fleet.frontend", "PerforationFleet", "start", "fleet"),
    ("repro.fleet.frontend", "PerforationFleet", "serve_trace", "fleet"),
    ("repro.fleet.protocol", None, "request_to_wire", "wire_encode"),
    ("repro.fleet.protocol", None, "encode_frame", "wire_encode"),
    ("repro.fleet.protocol", None, "decode_body", "wire_decode"),
    ("repro.fleet.protocol", None, "response_from_wire", "wire_decode"),
    ("repro.autotune.tuner", "Tuner", "tune", "tune"),
    ("repro.autotune.strategies", "TuningTask", "evaluate_batch", "tune"),
    ("repro.api.engine", "PerforationEngine", "timing", "timing"),
    ("repro.clsim.timing", "TimingModel", "estimate", "timing"),
    ("repro.core.pareto", None, "pareto_front", "pareto"),
)

#: Every layer whose self time the traced wall is split into.
LAYERS: tuple[str, ...] = (
    "perforator",
    "parse",
    "lowering",
    "launch",
    "reference",
    "error",
    "server",
    "scheduler",
    "controller",
    "result_cache",
    "fleet",
    "wire_encode",
    "wire_decode",
    "ipc_wait",
    "tune",
    "approximate",
    "timing",
    "pareto",
)

#: Computed bytes per global-memory element access (kernels use ``float``).
ELEMENT_BYTES = 4


class Recorder:
    """Patches the layers' public calls and records their spans in memory."""

    def __init__(self) -> None:
        self.active = False
        self.thread = threading.get_ident()
        self.request: object = None
        self.spans: list[tuple] = []
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.outer_calls: Counter[str] = Counter()
        self.nested: Counter[tuple[str, str]] = Counter()
        self.counters: Counter[str] = Counter()
        self.perforated: set[tuple] = set()
        self.lowered: dict[int, object] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> "Recorder":
        """Wrap every target (and each application's NumPy paths)."""
        for module_name, owner_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            if owner_name is None:
                original = getattr(module, attr)
                self._patch_function(original, layer, f"{module_name}.{attr}")
            else:
                owner = getattr(module, owner_name)
                self._patch_attr(owner, attr, layer, f"{owner_name}.{attr}")
        from repro.apps import available_applications, get_application

        for name in available_applications():
            cls = type(get_application(name))
            self._patch_attr(cls, "approximate", "approximate", f"{cls.__name__}.approximate")
            self._patch_attr(cls, "reference", "reference", f"{cls.__name__}.reference")
        self._patch_attr(selectors.DefaultSelector, "select", "ipc_wait", "selector.select")
        return self

    def _patch_function(self, original, layer: str, label: str) -> None:
        wrapper = self._wrap(original, layer, label)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, True))
                    setattr(module, attr, wrapper)

    def _patch_attr(self, owner: type, attr: str, layer: str, label: str) -> None:
        owned = attr in vars(owner)
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, staticmethod):
            wrapper = staticmethod(self._wrap(original.__func__, layer, label))
        else:
            wrapper = self._wrap(original, layer, label)
        self._patches.append((owner, attr, original, owned))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch (last first)."""
        self.active = False
        for target, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(target, attr, original)
            else:
                delattr(target, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _wrap(self, fn, layer: str, label: str):
        recorder = self
        probe = _PROBES.get(label)
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active or get_ident() != recorder.thread:
                return fn(*args, **kwargs)
            stack = recorder._stack
            parent = stack[-1] if stack else None
            frame = [layer, label, clock(), 0, len(recorder.spans)]
            recorder.spans.append(None)  # reserved: parents precede children
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[2]
                stack.pop()
                if parent is not None:
                    parent[3] += duration
                recorder.self_ns[layer] += duration - frame[3]
                recorder.calls[label] += 1
                recorder.total_ns[label] += duration
                if parent is None or parent[0] != layer:
                    recorder.outer_calls[layer] += 1
                if parent is not None:
                    recorder.nested[(label, parent[1])] += 1
                recorder.spans[frame[4]] = (
                    label,
                    frame[2],
                    duration,
                    None if parent is None else parent[4],
                    recorder.request,
                )
            if probe is not None:
                # Probes may call wrapped functions themselves (a front's
                # size); that is the harness's work, not the program's.
                recorder.active = False
                try:
                    probe(recorder, args, result, parent is not None and parent[0] == layer)
                finally:
                    recorder.active = True
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write the recorded spans (JSON, one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                label, start, duration, parent, request = span
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": label,
                            "start_ns": start,
                            "dur_ns": duration,
                            "parent": parent,
                            "request": None if request is None else str(request),
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Probes: counters read off a wrapped call's arguments and result
# ---------------------------------------------------------------------------
def _perforate(rec: Recorder, args, result, nested: bool) -> None:
    perforator = args[0]
    config = args[1] if len(args) > 1 else None
    key = "accurate" if config is None or config.is_accurate else config.key
    rec.perforated.add((perforator.kernel_name, perforator.source, key))


def _lowered(rec: Recorder, args, result, nested: bool) -> None:
    # A lowering call that returns an object it returned before was a
    # cache lookup; only new objects count as built.
    rec.lowered.setdefault(id(result), result)


def _launch(rec: Recorder, args, result, nested: bool) -> None:
    if nested:
        return  # a one-request batch falls back to run(): counted once
    rec.counters["launch.work_groups"] += result.work_groups
    rec.counters["launch.global_accesses"] += result.global_accesses


def _run(rec: Recorder, args, result, nested: bool) -> None:
    _launch(rec, args, result, nested)
    if not nested:
        rec.counters["launch.requests"] += 1


def _run_batch(rec: Recorder, args, result, nested: bool) -> None:
    _launch(rec, args, result, nested)
    executor, batch = args[0], len(args[3])
    rec.counters["launch.requests"] += batch
    if batch > 1 and executor.backend.supports_batching:
        rec.counters["launch.batched_requests"] += batch


def _cache_get(prefix: str):
    def probe(rec: Recorder, args, result, nested: bool) -> None:
        rec.counters[f"{prefix}.lookups"] += 1
        if result is not None:
            rec.counters[f"{prefix}.hits"] += 1

    return probe


def _batches(rec: Recorder, args, result, nested: bool) -> None:
    rec.counters["serve.batches"] += len(result)
    rec.counters["serve.batched_requests"] += sum(len(batch) for batch in result)


def _encoded(rec: Recorder, args, result, nested: bool) -> None:
    rec.counters["wire.bytes"] += len(result)


def _decoded(rec: Recorder, args, result, nested: bool) -> None:
    rec.counters["wire.bytes"] += len(args[0])


def _tuned(rec: Recorder, args, result, nested: bool) -> None:
    rec.counters["tune.evals_full"] += result.full_evaluations
    rec.counters["tune.evals_screen"] += result.evaluations - result.full_evaluations
    rec.counters["tune.front"] += len(result.front())


_PROBES = {
    "KernelPerforator.perforate": _perforate,
    "KernelPerforator.accurate": _perforate,
    "repro.kernellang.vectorize.vectorized_kernel": _lowered,
    "repro.kernellang.codegen.codegen_kernel": _lowered,
    "CodegenKernel.function": _lowered,
    "Executor.run": _run,
    "Executor.run_batch": _run_batch,
    "ArtifactCache.get": _cache_get("artifacts"),
    "ServeResultCache.get": _cache_get("result_cache"),
    "MicroBatchScheduler.ready": _batches,
    "MicroBatchScheduler.flush": _batches,
    "repro.fleet.protocol.encode_frame": _encoded,
    "repro.fleet.protocol.decode_body": _decoded,
    "Tuner.tune": _tuned,
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _nested_in(rec: Recorder, parent_label: str, suffix: str) -> int:
    return sum(
        count
        for (label, parent), count in rec.nested.items()
        if parent == parent_label and label.endswith(suffix)
    )


def layer_metrics(rec: Recorder, wall_ns: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (self times in seconds)."""
    s = {layer: rec.self_ns[layer] / 1e9 for layer in LAYERS}
    c = rec.counters
    attributed = sum(rec.self_ns[layer] for layer in LAYERS)
    engine_refs = rec.calls["PerforationEngine.reference"]
    engine_timings = rec.calls["PerforationEngine.timing"]
    launched = c["launch.requests"]
    perforations = rec.calls["KernelPerforator.perforate"] + rec.calls["KernelPerforator.accurate"]
    return {
        "perforator.calls": perforations,
        "perforator.useful_ratio": ratio(len(rec.perforated), perforations),
        "perforator.self_s": s["perforator"],
        "parse.calls": rec.outer_calls["parse"],
        "parse.self_s": s["parse"],
        "lowering.calls": len(rec.lowered),
        "lowering.self_s": s["lowering"],
        "artifacts.lookups": c["artifacts.lookups"],
        "artifacts.hit_ratio": ratio(c["artifacts.hits"], c["artifacts.lookups"]),
        "launch.calls": rec.outer_calls["launch"],
        "launch.self_s": s["launch"],
        "launch.batched_share": ratio(c["launch.batched_requests"], launched),
        "launch.work_groups": c["launch.work_groups"],
        "launch.bytes_moved": c["launch.global_accesses"] * ELEMENT_BYTES,
        "reference.calls": engine_refs,
        "reference.hit_ratio": ratio(
            engine_refs - _nested_in(rec, "PerforationEngine.reference", ".reference"),
            engine_refs,
        ),
        "reference.self_s": s["reference"],
        "error.self_s": s["error"],
        "server.self_s": s["server"],
        "scheduler.self_s": s["scheduler"],
        "controller.self_s": s["controller"],
        "result_cache.self_s": s["result_cache"],
        "result_cache.hit_ratio": ratio(c["result_cache.hits"], c["result_cache.lookups"]),
        "fleet.self_s": s["fleet"],
        "wire.encode_s": s["wire_encode"],
        "wire.decode_s": s["wire_decode"],
        "ipc.wait_s": s["ipc_wait"],
        "tune.evals_full": c["tune.evals_full"],
        "tune.evals_screen": c["tune.evals_screen"],
        "tune.front_share": ratio(c["tune.front"], c["tune.evals_full"]),
        "tune.self_s": s["tune"],
        "approximate.self_s": s["approximate"],
        "timing.calls": engine_timings,
        "timing.hit_ratio": ratio(
            engine_timings - _nested_in(rec, "PerforationEngine.timing", "TimingModel.estimate"),
            engine_timings,
        ),
        "timing.self_s": s["timing"],
        "pareto.self_s": s["pareto"],
        "trace.wall_s": wall_ns / 1e9,
        "unattributed_s": (wall_ns - attributed) / 1e9,
    }


#: Serving and fleet figures a workload without them reports as zero.
SERVING_DEFAULTS: dict[str, float] = {
    "serve.batches": 0,
    "serve.batch_size_mean": 0.0,
    "serve.batch_wait_ms_p50": 0.0,
    "serve.batch_wait_samples": 0,
    "controller.switches": 0,
    "wire.bytes_per_request": 0.0,
    "worker.busy_s": 0.0,
    "worker.imbalance": 0.0,
    "fleet.start_s": 0.0,
    "fleet.replayed": 0,
    "worker.peak_rss_mb": 0.0,
}


def worker_metrics(spans) -> dict[str, float]:
    """Fleet-worker figures from the ``repro.obs`` spans workers ship home."""
    busy: dict[str, int] = defaultdict(int)
    launches = work_groups = accesses = launched = batched = 0
    batch_sizes: list[int] = []
    switches = 0
    for span in spans:
        if not span.process.startswith("worker-"):
            continue
        if span.name == "serve.batch":
            busy[span.process] += span.duration_ns
            batch_sizes.append(int(span.attrs.get("size", 0)))
        elif span.name in ("clsim.launch", "clsim.launch_batch"):
            launches += 1
            work_groups += int(span.attrs.get("work_groups", 0))
            accesses += int(span.attrs.get("global_accesses", 0))
            size = int(span.attrs.get("batch", 1))
            launched += size
            if span.name == "clsim.launch_batch":
                batched += size
        elif span.name in ("controller.tighten", "controller.loosen"):
            switches += 1
    values = list(busy.values())
    mean_busy = sum(values) / len(values) if values else 0
    return {
        "worker.busy_s": sum(values) / 1e9,
        "worker.imbalance": ratio(max(values, default=0), mean_busy),
        "launch.calls": launches,
        "launch.work_groups": work_groups,
        "launch.bytes_moved": accesses * ELEMENT_BYTES,
        "launch.batched_share": ratio(batched, launched),
        "serve.batches": len(batch_sizes),
        "serve.batch_size_mean": ratio(sum(batch_sizes), len(batch_sizes)),
        "controller.switches": switches,
    }
