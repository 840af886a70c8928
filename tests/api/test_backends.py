"""Tests for the execution-backend registry and the ``backend=`` plumbing
through executor, engine and session (mirrors ``tests/api/test_registry.py``
for the application/device/scheme registries)."""

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.clsim import Executor
from repro.clsim.backends import (
    DEFAULT_BACKEND,
    EXECUTION_BACKENDS,
    CodegenBackend,
    InterpreterBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.clsim.errors import InvalidBackendError
from repro.core import ROWS1_NN
from repro.data import generate_image


class RecordingBackend(InterpreterBackend):
    """Interpreter backend that counts the launches and groups it executed."""

    name = "recording"

    def __init__(self) -> None:
        self.launches = 0
        self.groups = 0

    def run_launch(self, kernel, ndrange, args, batch, stats, local_mem_per_cu):
        self.launches += 1
        super().run_launch(kernel, ndrange, args, batch, stats, local_mem_per_cu)

    def run_group(self, kernel, ctx, ndrange, group_id):
        self.groups += 1
        return super().run_group(kernel, ctx, ndrange, group_id)


class TestBackendRegistry:
    def test_builtin_backends_are_registered(self):
        assert available_backends() == ["codegen", "interpreter"]
        assert DEFAULT_BACKEND == "interpreter"

    def test_get_backend_instantiates(self):
        assert isinstance(get_backend("interpreter"), InterpreterBackend)
        assert isinstance(get_backend("codegen"), CodegenBackend)

    def test_vectorized_backend_is_gone(self):
        """The former second compiled backend no longer resolves; the error
        names the backends that remain."""
        with pytest.raises(InvalidBackendError, match="'codegen', 'interpreter'"):
            resolve_backend("vectorized")

    def test_unknown_name_raises_with_available_names(self):
        with pytest.raises(InvalidBackendError, match="unknown execution backend"):
            get_backend("warp-drive")
        with pytest.raises(InvalidBackendError, match="interpreter"):
            get_backend("warp-drive")

    def test_register_and_unregister(self):
        register_backend("recording-test", RecordingBackend)
        try:
            assert "recording-test" in available_backends()
            assert isinstance(get_backend("recording-test"), RecordingBackend)
            with pytest.raises(ValueError, match="already registered"):
                register_backend("recording-test", RecordingBackend)
            register_backend("recording-test", RecordingBackend, overwrite=True)
        finally:
            EXECUTION_BACKENDS.unregister("recording-test")
        assert "recording-test" not in available_backends()

    def test_resolve_backend(self):
        assert isinstance(resolve_backend(None), InterpreterBackend)
        assert isinstance(resolve_backend("codegen"), CodegenBackend)
        instance = RecordingBackend()
        assert resolve_backend(instance) is instance
        with pytest.raises(InvalidBackendError):
            resolve_backend(42)


class TestExecutorBackendSelection:
    def test_executor_defaults_to_interpreter(self, device):
        assert isinstance(Executor(device).backend, InterpreterBackend)

    def test_executor_accepts_name_and_instance(self, device):
        assert isinstance(Executor(device, backend="codegen").backend, CodegenBackend)
        instance = RecordingBackend()
        assert Executor(device, backend=instance).backend is instance

    def test_executor_rejects_unknown_backend(self, device):
        with pytest.raises(InvalidBackendError):
            Executor(device, backend="warp-drive")


class TestEngineBackendPlumbing:
    def test_engine_defaults_to_interpreter(self):
        engine = PerforationEngine()
        assert engine.backend.name == "interpreter"
        assert isinstance(engine.executor().backend, InterpreterBackend)

    def test_engine_resolves_backend_name_eagerly(self):
        engine = PerforationEngine(backend="codegen")
        assert isinstance(engine.backend, CodegenBackend)
        with pytest.raises(InvalidBackendError):
            PerforationEngine(backend="warp-drive")

    def test_engine_executor_override(self):
        engine = PerforationEngine(backend="codegen")
        assert isinstance(engine.executor("interpreter").backend, InterpreterBackend)
        assert isinstance(engine.executor().backend, CodegenBackend)

    def test_run_compiled_uses_engine_backend(self):
        recording = RecordingBackend()
        engine = PerforationEngine(backend=recording)
        image = generate_image("natural", size=16, seed=3)
        engine.run_compiled("inversion", image, ROWS1_NN.with_work_group((8, 8)))
        assert recording.launches == 1  # one launch hook call ...
        assert recording.groups == 4  # ... runs the 16x16 image's 8x8 groups

    def test_run_compiled_per_call_override(self):
        recording = RecordingBackend()
        engine = PerforationEngine(backend="codegen")
        image = generate_image("natural", size=16, seed=3)
        engine.run_compiled(
            "inversion", image, ROWS1_NN.with_work_group((8, 8)), backend=recording
        )
        assert recording.groups == 4

    def test_compiled_sweep_runs_every_configuration(self):
        engine = PerforationEngine(backend="codegen")
        image = generate_image("natural", size=16, seed=3)
        outputs = engine.compiled_sweep("gaussian", image)
        assert len(outputs) == 4
        for label, output in outputs.items():
            assert output.shape == image.shape, label


class TestSessionBackendPlumbing:
    def test_session_inherits_engine_backend(self):
        recording = RecordingBackend()
        engine = PerforationEngine(backend=recording)
        session = engine.session("inversion")
        assert session.backend is None  # defers to the engine
        image = generate_image("natural", size=16, seed=3)
        session.run_compiled(image, ROWS1_NN.with_work_group((8, 8)))
        assert recording.groups == 4

    def test_per_session_override_beats_engine_backend(self):
        recording = RecordingBackend()
        engine = PerforationEngine(backend="codegen")
        session = engine.session("inversion", backend=recording)
        image = generate_image("natural", size=16, seed=3)
        session.run_compiled(image, ROWS1_NN.with_work_group((8, 8)))
        assert recording.groups == 4

    def test_with_backend_fluent_setter(self):
        engine = PerforationEngine()
        session = engine.session("inversion").with_backend("codegen")
        assert isinstance(session.backend, CodegenBackend)
        image = generate_image("natural", size=16, seed=3)
        out = session.run_compiled(image, ROWS1_NN.with_work_group((8, 8)))
        np.testing.assert_array_equal(
            out,
            engine.run_compiled(
                "inversion", image, ROWS1_NN.with_work_group((8, 8))
            ),
        )

    def test_unknown_session_backend_fails_eagerly(self):
        engine = PerforationEngine()
        with pytest.raises(InvalidBackendError):
            engine.session("inversion", backend="warp-drive")
        with pytest.raises(InvalidBackendError):
            engine.session("inversion").with_backend("warp-drive")

    def test_compiled_sweep_rejects_colliding_labels(self):
        from repro.core.errors import ConfigurationError

        engine = PerforationEngine(backend="codegen")
        image = generate_image("natural", size=16, seed=3)
        config = ROWS1_NN.with_work_group((8, 8))
        with pytest.raises(ConfigurationError, match="distinct labels"):
            engine.compiled_sweep("inversion", image, [config, config])
