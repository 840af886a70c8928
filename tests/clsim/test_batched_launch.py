"""Micro-batched launch parity suite.

A batched launch (:meth:`Executor.run_batch` /
:meth:`PerforationEngine.run_compiled_batch`) must be observationally a
pure throughput optimisation: bit-identical outputs and *summed*
:class:`ExecutionStats` compared with running the same requests one by
one — on the codegen backend (which stacks every work group of every
request into the lanes of one launch) and on the interpreter backend
(which serves batches through the serial fallback).
"""

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.clsim import Executor, KernelExecutionError, NDRange
from repro.clsim.memory import Buffer, SegmentedBuffer
from repro.clsim.errors import BufferSizeError
from repro.core import ApproximationConfig
from repro.core.schemes import RowPerforation, StencilPerforation
from repro.data import generate_image, hotspot_single

#: Small inputs + (8, 8) groups keep the interpreter side cheap.
WORK_GROUP = (8, 8)
SIZE = 16

ROWS1 = ApproximationConfig(scheme=RowPerforation(step=2), work_group=WORK_GROUP)
ROWS1_LI = ApproximationConfig(
    scheme=RowPerforation(step=2),
    reconstruction="linear-interpolation",
    work_group=WORK_GROUP,
)
STENCIL = ApproximationConfig(scheme=StencilPerforation(), work_group=WORK_GROUP)
ACCURATE = ApproximationConfig(work_group=WORK_GROUP)


def _inputs(app_name: str, count: int):
    if app_name == "hotspot":
        return [hotspot_single(size=SIZE, seed=30 + i) for i in range(count)]
    return [generate_image("natural", size=SIZE, seed=30 + i) for i in range(count)]


def _stats_tuple(stats):
    return (
        stats.work_items,
        stats.work_groups,
        stats.barriers,
        stats.global_counters.reads,
        stats.global_counters.writes,
        stats.local_counters.reads,
        stats.local_counters.writes,
        stats.private_counters.reads,
        stats.private_counters.writes,
    )


def _summed(stats_list):
    return tuple(sum(values) for values in zip(*map(_stats_tuple, stats_list)))


class TestBatchedLaunchParity:
    @pytest.mark.parametrize("backend", ["codegen", "interpreter"])
    @pytest.mark.parametrize(
        "app_name,config",
        [
            ("gaussian", ROWS1),
            ("gaussian", STENCIL),
            ("gaussian", ACCURATE),
            ("sobel3", ROWS1_LI),
            ("inversion", ROWS1),
            ("median", ROWS1),
            ("hotspot", STENCIL),
        ],
    )
    def test_batch_matches_individual_runs(self, backend, app_name, config):
        engine = PerforationEngine(backend=backend)
        inputs = _inputs(app_name, 3)

        individual = [
            engine.run_compiled(app_name, i, config, with_stats=True) for i in inputs
        ]
        outputs, stats = engine.run_compiled_batch(
            app_name, inputs, config, with_stats=True
        )

        assert len(outputs) == len(inputs)
        for (expected, _), actual in zip(individual, outputs):
            np.testing.assert_array_equal(expected, actual)
        assert _stats_tuple(stats) == _summed(s for _, s in individual)

    @pytest.mark.parametrize("backend", ["codegen"])
    def test_batch_of_one_matches_single_run(self, backend):
        engine = PerforationEngine(backend=backend)
        image = generate_image("natural", size=SIZE, seed=5)
        single = engine.run_compiled("gaussian", image, ROWS1)
        [batched] = engine.run_compiled_batch("gaussian", [image], ROWS1)
        np.testing.assert_array_equal(single, batched)

    def test_session_run_compiled_batch(self):
        engine = PerforationEngine(backend="codegen")
        inputs = _inputs("gaussian", 2)
        session = engine.session(app="gaussian")
        outputs = session.run_compiled_batch(inputs, config=ROWS1)
        expected = [engine.run_compiled("gaussian", i, ROWS1) for i in inputs]
        for want, got in zip(expected, outputs):
            np.testing.assert_array_equal(want, got)


class TestBatchedLaunchValidation:
    def test_empty_batch_rejected(self):
        engine = PerforationEngine(backend="codegen")
        with pytest.raises(Exception, match="at least one input"):
            engine.run_compiled_batch("gaussian", [], ROWS1)

    def test_mismatched_sizes_rejected(self):
        engine = PerforationEngine(backend="codegen")
        a = generate_image("natural", size=16, seed=1)
        b = generate_image("natural", size=32, seed=2)
        with pytest.raises(Exception, match="identically sized"):
            engine.run_compiled_batch("gaussian", [a, b], ROWS1)

    def test_mismatched_scalars_rejected(self):
        """Same global size but different scalar kernel arguments."""

        engine = PerforationEngine(backend="codegen")
        app = engine.resolve_app("gaussian")
        kernel = app.perforator().accurate().executable()
        image = generate_image("natural", size=SIZE, seed=3)
        ndrange = NDRange((SIZE, SIZE), WORK_GROUP)

        def args(width):
            output = app.output_buffer(image)
            bound = app.kernel_args(image, output)
            bound["width"] = width
            return bound

        with pytest.raises(KernelExecutionError, match="identical scalar"):
            engine.executor().run_batch(kernel, ndrange, [args(SIZE), args(SIZE + 16)])

    def test_mismatched_buffer_shapes_rejected(self):
        engine = PerforationEngine(backend="codegen")
        app = engine.resolve_app("gaussian")
        kernel = app.perforator().accurate().executable()
        small = generate_image("natural", size=SIZE, seed=3)
        ndrange = NDRange((SIZE, SIZE), WORK_GROUP)

        good = app.kernel_args(small, app.output_buffer(small))
        bad = dict(good)
        bad["input"] = Buffer(np.zeros((SIZE, 2 * SIZE)), "input")
        with pytest.raises(KernelExecutionError, match="identically shaped"):
            engine.executor().run_batch(kernel, ndrange, [good, bad])

    def test_interpreter_fallback_is_serial(self):
        """Backends without batching support still serve batches (serially)."""

        executor = Executor(backend="interpreter")
        assert not executor.backend.supports_batching
        engine = PerforationEngine(backend="interpreter")
        inputs = _inputs("gaussian", 2)
        outputs = engine.run_compiled_batch("gaussian", inputs, ROWS1)
        for inp, out in zip(inputs, outputs):
            np.testing.assert_array_equal(engine.run_compiled("gaussian", inp, ROWS1), out)

    def test_base_backend_batch_hook_raises(self):
        """The default launch hook runs one group at a time through
        ``run_group`` and refuses a stacked batch."""
        from repro.clsim.backends import InterpreterBackend
        from repro.clsim.executor import ExecutionStats

        backend = InterpreterBackend()
        with pytest.raises(KernelExecutionError, match="does not support batched"):
            backend.run_launch(None, NDRange((8, 8), (8, 8)), {}, 2, ExecutionStats(), 1024)


class TestSegmentedBuffer:
    def test_segments_partition_the_arena(self):
        arena = SegmentedBuffer(np.arange(12.0), "x", segment_elements=4, batch=3)
        np.testing.assert_array_equal(arena.segment(1), [4.0, 5.0, 6.0, 7.0])

    def test_size_must_match(self):
        with pytest.raises(BufferSizeError):
            SegmentedBuffer(np.arange(10.0), "x", segment_elements=4, batch=3)

    def test_segment_index_bounds(self):
        arena = SegmentedBuffer(np.arange(8.0), "x", segment_elements=4, batch=2)
        with pytest.raises(Exception, match="out of range"):
            arena.segment(2)
