"""The :class:`PerforationEngine` facade.

The engine is the single entry point to the reproduction library: it owns
the simulated :class:`~repro.clsim.device.Device`, the analytical
:class:`~repro.clsim.timing.TimingModel`, two in-memory LRU stores for
reference outputs and timing estimates (:mod:`repro.api.cache`) and an optional
``concurrent.futures`` worker pool for parallel sweeps and dataset
evaluation.  Applications and device profiles are resolved by name through
the plain dicts of their built-in instances (:data:`repro.apps.APPLICATIONS`,
:data:`repro.clsim.device.DEVICE_PROFILES`), so

.. code-block:: python

    from repro.api import PerforationEngine

    engine = PerforationEngine(device="firepro-w5100", workers=4)
    sweep = engine.sweep("gaussian", image)          # the paper's four configs
    output = engine.run_compiled("sobel3", image, ROWS1_NN)

works without importing a single application class.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from ..apps import get_application
from ..clsim.backends import ExecutionBackend, resolve_backend
from ..clsim.device import Device, get_device
from ..clsim.executor import ExecutionStats, Executor
from ..clsim.ndrange import NDRange
from ..clsim.timing import TimingBreakdown, TimingModel
from ..core.config import (
    ACCURATE_CONFIG,
    ApproximationConfig,
    WORK_GROUP_CANDIDATES,
    default_configurations,
)
from ..core.errors import ConfigurationError, TuningError
from ..core.perforator import build_kernel
from ..core.pipeline import (
    ConfigurationResult,
    DatasetResult,
    baseline_config_for,
)
from ..core.quality import ErrorSummary, compute_error
from ..core.tuning import SweepPoint, SweepResult, WorkGroupTiming
from ..obs.trace import get_tracer
from .cache import LRUCache, input_token

T = TypeVar("T")
R = TypeVar("R")

#: Cap applied to ``workers="auto"`` so small machines are not oversubscribed.
AUTO_WORKER_CAP = 8

#: Bound on cached reference outputs.  References can be large (a
#: 1024x1024 float64 image is 8 MiB), and a sweep or calibration pass only
#: ever needs the references of the inputs currently in flight.
MAX_REFERENCES = 32

#: Bound on cached timing estimates.  Each is tiny, but a long-running
#: server sweeps an open-ended stream of (app, config, size) keys.
MAX_TIMINGS = 4096


def _auto_workers() -> int:
    return max(1, min(AUTO_WORKER_CAP, os.cpu_count() or 1))


class PerforationEngine:
    """Evaluation backend for kernel perforation.

    Parameters
    ----------
    device:
        A :class:`Device`, a built-in profile name (see
        :func:`repro.clsim.device.available_devices`), or ``None`` for the
        paper's FirePro W5100 profile.
    workers:
        Size of the worker pool used for sweeps and dataset evaluation.
        ``1`` (the default) evaluates serially, ``"auto"`` sizes the pool
        from the CPU count.  Parallel results are bit-for-bit identical to
        serial ones — every evaluation is a pure function of its inputs.
    backend:
        Execution backend of every compiled launch (:meth:`run_compiled`,
        :meth:`run_compiled_batch`, :meth:`compiled_sweep`, a server on
        this engine): a built-in name (``"interpreter"``, ``"codegen"``),
        an :class:`~repro.clsim.backends.ExecutionBackend` instance, or
        ``None`` for the default interpreter backend.  Outputs and stats
        are bit-identical across both (see
        ``docs/backends.md`` and ``docs/ir.md``).
    """

    def __init__(
        self,
        device: Device | str | None = None,
        workers: int | str = 1,
        backend: "ExecutionBackend | str | None" = None,
    ) -> None:
        if device is None:
            device = get_device()
        elif isinstance(device, str):
            device = get_device(device)
        self.device = device
        # Resolve eagerly so unknown backend names fail at construction.
        self.backend = resolve_backend(backend)
        self.timing_model = TimingModel(device)
        #: Accurate outputs per (application, input), see :meth:`reference`.
        self.references = LRUCache(MAX_REFERENCES)
        #: Timing breakdowns per (application, config, size), see :meth:`timing`.
        self.timings = LRUCache(MAX_TIMINGS)
        if workers == "auto":
            workers = _auto_workers()
        if not isinstance(workers, int) or workers < 1:
            raise ValueError(f"workers must be a positive integer or 'auto', got {workers!r}")
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Resolution and bookkeeping
    # ------------------------------------------------------------------
    def resolve_app(self, app):
        """Resolve an application by name (instances pass through)."""
        return get_application(app) if isinstance(app, str) else app

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Order-preserving map over the worker pool (serial when workers=1)."""
        if self.workers <= 1 or self._closed or len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="perforation-engine"
            )
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        """Shut down the worker pool; subsequent calls evaluate serially."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "PerforationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _app_cache_key(app) -> str:
        """Cache key of an application: class identity plus name.

        Keying by class (not just ``app.name``) keeps a subclass that
        overrides ``reference``/``profile`` without renaming itself from
        aliasing the stock application's cached results.  Instances of the
        same class still share entries — applications are stateless.
        """
        cls = type(app)
        return f"{cls.__module__}.{cls.__qualname__}:{app.name}"

    # ------------------------------------------------------------------
    # Cached primitives
    # ------------------------------------------------------------------
    def reference(self, app, inputs) -> np.ndarray:
        """Accurate output of ``app`` for ``inputs`` (memoized by content).

        The returned array is shared with the cache and marked read-only;
        ``.copy()`` it before mutating.  An input that cannot be
        fingerprinted is keyed by identity, and its entry holds the input,
        so the identity cannot be recycled while the entry is cached.
        """
        app = self.resolve_app(app)
        token = input_token(inputs)
        pin = inputs if token is None else None
        key = (self._app_cache_key(app), token or ("identity", id(inputs)))

        def compute() -> tuple[np.ndarray, object]:
            value = np.asarray(app.reference(inputs))
            # Shared between callers: in-place mutation must fail loudly
            # instead of poisoning every later error against this input.
            value.setflags(write=False)
            return value, pin

        return self.references.get_or_compute(key, compute)[0]

    def timing(
        self, app, config: ApproximationConfig, global_size: tuple[int, int]
    ) -> TimingBreakdown:
        """Modelled timing of ``app`` under ``config`` (memoized)."""
        app = self.resolve_app(app)

        def compute() -> TimingBreakdown:
            profile, ndrange = app.profile(config, global_size)
            return self.timing_model.estimate(profile, ndrange)

        return self.timings.get_or_compute((self._app_cache_key(app), config, global_size), compute)

    def baseline_timing(self, app, global_size: tuple[int, int]) -> TimingBreakdown:
        """Timing of the accurate baseline the speedups are measured against."""
        app = self.resolve_app(app)
        return self.timing(app, baseline_config_for(app), global_size)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        app,
        inputs,
        config: ApproximationConfig,
        reference: np.ndarray | None = None,
    ) -> ConfigurationResult:
        """Full pipeline of the paper's Figure 1b for one configuration."""
        app = self.resolve_app(app)
        config.validate_for_halo(app.halo)

        if reference is None:
            reference = self.reference(app, inputs)
        approximate = app.approximate(inputs, config)
        error = compute_error(reference, approximate, app.error_metric)
        return self._result(app, config, error, app.global_size(inputs))

    def _result(
        self, app, config: ApproximationConfig, error: float, global_size: tuple[int, int]
    ) -> ConfigurationResult:
        """``config``'s measured ``error`` with its modelled timings."""
        baseline_timing = self.baseline_timing(app, global_size)
        approx_timing = self.timing(app, config, global_size)
        return ConfigurationResult(
            app_name=app.name,
            config=config,
            error=error,
            baseline_time_s=baseline_timing.total_time_s,
            approx_time_s=approx_timing.total_time_s,
            baseline_timing=baseline_timing,
            approx_timing=approx_timing,
        )

    def errors(self, app, inputs, configs: Iterable[ApproximationConfig]) -> list[float]:
        """The error of each configuration on one input, one float per config.

        Every configuration is validated as :meth:`evaluate` validates it,
        and the reference is taken once.  Configurations with equal
        :meth:`~repro.apps.base.Application.approximation_key` give the same
        approximate output, so ``approximate`` and the error measurement
        run once per distinct key, in first-occurrence order, on the worker
        pool; each config gets its key's float.  Nothing outlives the call.
        """
        app = self.resolve_app(app)
        configs = list(configs)
        for config in configs:
            config.validate_for_halo(app.halo)
        reference = self.reference(app, inputs)
        keys = [app.approximation_key(config) for config in configs]
        firsts: dict[object, ApproximationConfig] = {}
        for key, config in zip(keys, configs):
            firsts.setdefault(key, config)

        def one(config: ApproximationConfig) -> float:
            approximate = app.approximate(inputs, config)
            return compute_error(reference, approximate, app.error_metric)

        values = dict(zip(firsts, self._map(one, list(firsts.values()))))
        return [values[key] for key in keys]

    def evaluate_many(
        self, app, inputs, configs: Iterable[ApproximationConfig]
    ) -> list[ConfigurationResult]:
        """Evaluate several configurations on one input.

        Errors come from :meth:`errors` (one reference, one approximation
        per distinct approximation key); each configuration then looks up
        its own baseline and approximate timing.  Results follow
        configuration order.
        """
        app = self.resolve_app(app)
        configs = list(configs)
        errors = self.errors(app, inputs, configs)
        global_size = app.global_size(inputs)
        return [
            self._result(app, config, error, global_size)
            for config, error in zip(configs, errors)
        ]

    def evaluate_dataset(
        self, app, dataset: Sequence, config: ApproximationConfig
    ) -> DatasetResult:
        """One configuration over a whole dataset (parallel over inputs).

        ``dataset`` may be any sequence of inputs, including a NumPy array
        whose first axis indexes the inputs.
        """
        if len(dataset) == 0:
            raise ConfigurationError("dataset must contain at least one input")
        app = self.resolve_app(app)
        config.validate_for_halo(app.halo)

        def one(inputs) -> float:
            reference = self.reference(app, inputs)
            approximate = app.approximate(inputs, config)
            return compute_error(reference, approximate, app.error_metric)

        errors = self._map(one, list(dataset))

        global_size = app.global_size(dataset[0])
        baseline_time = self.baseline_timing(app, global_size).total_time_s
        approx_time = self.timing(app, config, global_size).total_time_s

        return DatasetResult(
            app_name=app.name,
            config=config,
            errors=tuple(errors),
            summary=ErrorSummary.from_errors(errors),
            speedup=baseline_time / approx_time,
            baseline_time_s=baseline_time,
            approx_time_s=approx_time,
        )

    # ------------------------------------------------------------------
    # Compiler path (simulated execution of the transformed kernels)
    # ------------------------------------------------------------------
    def executor(self) -> Executor:
        """A :class:`~repro.clsim.executor.Executor` on this engine's device and backend."""
        return Executor(self.device, self.backend)

    def run_compiled(
        self,
        app,
        inputs,
        config: ApproximationConfig | None = None,
        with_stats: bool = False,
    ):
        """Run the *compiled* (perforated) kernel on the simulated device.

        This is the paper's compiler path — kernellang passes plus
        functional execution — as opposed to the NumPy fast path used by
        :meth:`evaluate`.  The engine's execution backend decides how fast
        the simulation itself runs; outputs and access counters are
        backend-independent (see the cross-backend conformance suite).  The
        kernel is built once per process (:func:`~repro.core.perforator.build_kernel`).

        Returns the output array, or ``(output, stats)`` with
        ``with_stats=True``.
        """
        app = self.resolve_app(app)
        if config is None:
            config = ACCURATE_CONFIG
        config.validate_for_halo(app.halo)
        kernel = build_kernel(app.kernel_source(), config)
        width, height = app.global_size(inputs)
        output = app.output_buffer(inputs)
        args = app.kernel_args(inputs, output)
        stats: ExecutionStats = self.executor().run(
            kernel, NDRange((width, height), config.work_group), args
        )
        if with_stats:
            return output.array, stats
        return output.array

    def run_compiled_batch(
        self,
        app,
        inputs_batch: Sequence,
        config: ApproximationConfig | None = None,
        with_stats: bool = False,
    ):
        """Run the compiled kernel for several inputs as one micro-batched launch.

        All inputs must have the same global size; the kernel is built once
        per process (:func:`~repro.core.perforator.build_kernel`), and on a
        backend that supports batching (the codegen backend) every work
        group executes the stacked lanes of all requests together via the
        batching transform (:mod:`repro.kernellang.passes.batching`) — the
        serving subsystem's fast path.  Outputs
        are bit-identical to per-input :meth:`run_compiled` calls, and the
        stats (with ``with_stats=True``) equal the sum of the individual
        launches' stats.

        Returns the list of output arrays (request order), or
        ``(outputs, stats)`` with ``with_stats=True``.
        """
        app = self.resolve_app(app)
        if config is None:
            config = ACCURATE_CONFIG
        config.validate_for_halo(app.halo)
        inputs_batch = list(inputs_batch)
        if not inputs_batch:
            raise ConfigurationError("batched launch requires at least one input")
        global_size = app.global_size(inputs_batch[0])
        for inputs in inputs_batch[1:]:
            if app.global_size(inputs) != global_size:
                raise ConfigurationError(
                    f"batched launch requires identically sized inputs "
                    f"(got {app.global_size(inputs)} vs {global_size})"
                )
        kernel = build_kernel(app.kernel_source(), config)
        width, height = global_size
        outputs = [app.output_buffer(inputs) for inputs in inputs_batch]
        args_batch = [
            app.kernel_args(inputs, output)
            for inputs, output in zip(inputs_batch, outputs)
        ]
        stats: ExecutionStats = self.executor().run_batch(
            kernel, NDRange((width, height), config.work_group), args_batch
        )
        arrays = [output.array for output in outputs]
        if with_stats:
            return arrays, stats
        return arrays

    def compiled_sweep(
        self,
        app,
        inputs,
        configs: Iterable[ApproximationConfig] | None = None,
    ) -> dict[str, np.ndarray]:
        """Run the compiled kernel for each configuration (default: the
        paper's four), returning outputs keyed by configuration label.

        Evaluations are independent and run on the worker pool.
        """
        app = self.resolve_app(app)
        if configs is None:
            configs = default_configurations(app.halo)
        configs = list(configs)
        labels = [config.label for config in configs]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(
                "compiled_sweep configurations must have distinct labels "
                f"(got {labels}); differentiate the configs or run them "
                "individually via run_compiled()"
            )
        outputs = self._map(lambda config: self.run_compiled(app, inputs, config), configs)
        return {config.label: output for config, output in zip(configs, outputs)}

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def sweep(
        self,
        app,
        inputs,
        configs: Iterable[ApproximationConfig] | None = None,
    ) -> SweepResult:
        """Evaluate a set of configurations (default: the paper's four).

        The accurate reference is computed once per input and shared by all
        workers; point order follows configuration order regardless of the
        worker count.
        """
        app = self.resolve_app(app)
        if configs is None:
            configs = default_configurations(app.halo)
        configs = list(configs)
        with get_tracer().span(
            "engine.sweep", category="calibrate", app=app.name, configs=len(configs)
        ):
            evaluations = self.evaluate_many(app, inputs, configs)
        result = SweepResult(app_name=app.name)
        result.points.extend(
            SweepPoint(
                config=evaluation.config,
                error=evaluation.error,
                speedup=evaluation.speedup,
                runtime_s=evaluation.approx_time_s,
            )
            for evaluation in evaluations
        )
        return result

    def sweep_work_groups(
        self,
        app,
        inputs,
        configs: Sequence[ApproximationConfig],
        work_groups: Sequence[tuple[int, int]] = WORK_GROUP_CANDIDATES,
        include_baseline: bool = True,
    ) -> list[WorkGroupTiming]:
        """Timing of each configuration for each work-group shape (Figure 9).

        Only the timing model runs — the error does not depend on the
        work-group shape for row schemes — so this sweep is always serial;
        the cached timings make it cheap.
        """
        app = self.resolve_app(app)
        variants: list[tuple[str, ApproximationConfig]] = []
        if include_baseline:
            variants.append(("Baseline", ACCURATE_CONFIG))
        variants.extend((config.label, config) for config in configs)

        width, height = app.global_size(inputs)
        results: list[WorkGroupTiming] = []
        for label, config in variants:
            for work_group in work_groups:
                wx, wy = work_group
                if width % wx != 0 or height % wy != 0:
                    continue
                if wx * wy > self.device.max_work_group_size:
                    continue
                if config.scheme.requires_halo() and app.halo == 0:
                    continue
                shaped = config.with_work_group(work_group)
                timing = self.timing(app, shaped, (width, height))
                results.append(
                    WorkGroupTiming(
                        work_group=work_group, variant=label, runtime_s=timing.total_time_s
                    )
                )
        return results

    def best_work_group(
        self,
        app,
        inputs,
        config: ApproximationConfig,
        work_groups: Sequence[tuple[int, int]] = WORK_GROUP_CANDIDATES,
    ) -> tuple[int, int]:
        """Work-group shape minimising the modelled runtime of ``config``."""
        app = self.resolve_app(app)
        timings = self.sweep_work_groups(
            app, inputs, [config], work_groups, include_baseline=False
        )
        if not timings:
            raise TuningError(
                f"no admissible work-group shape for {app.name!r} with {config.label}"
            )
        return min(timings, key=lambda t: t.runtime_s).work_group

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PerforationEngine device={self.device.name!r} workers={self.workers} "
            f"backend={self.backend.name!r}>"
        )
