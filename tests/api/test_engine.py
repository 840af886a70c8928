"""Tests for the PerforationEngine: caching, parallelism, evaluation parity."""

import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.api import engine as engine_module
from repro.api.cache import input_token
from repro.apps import GaussianApp, available_applications
from repro.apps.hotspot import HotspotCoefficients
from repro.apps.inversion import INVERSION_MAX
from repro.autotune import default_space
from repro.core import ConfigurationError, ROWS1_NN, STENCIL1_NN
from repro.core import perforator
from repro.core.config import ACCURATE_CONFIG, default_configurations
from repro.core.perforator import KernelPerforator, build_kernel
from repro.core.quality import MRE_EPSILON, compute_error
from repro.data import HotspotInput, generate_image, hotspot_single
from repro.kernellang.transforms import pass_manager
from repro.serve import PerforationServer, TraceSpec, generate_trace


class CountingGaussian(GaussianApp):
    """Gaussian app that counts reference/approximate evaluations."""

    def __init__(self):
        super().__init__()
        self.reference_calls = 0
        self.approximate_calls = 0

    def reference(self, inputs):
        self.reference_calls += 1
        return super().reference(inputs)

    def approximate(self, inputs, config):
        self.approximate_calls += 1
        return super().approximate(inputs, config)


@pytest.fixture()
def image():
    return generate_image("natural", size=64, seed=11)


class TestConstruction:
    def test_default_device_is_firepro(self):
        engine = PerforationEngine()
        assert "W5100" in engine.device.name

    def test_device_by_name(self):
        engine = PerforationEngine(device="generic-hbm")
        assert "HBM" in engine.device.name

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            PerforationEngine(workers=0)
        with pytest.raises(ValueError):
            PerforationEngine(workers="many")

    def test_auto_workers(self):
        assert PerforationEngine(workers="auto").workers >= 1

    def test_context_manager_closes_pool(self, image):
        with PerforationEngine(workers=2) as engine:
            engine.sweep("gaussian", image)
        assert engine._pool is None

    def test_closed_engine_stays_serial(self, image):
        engine = PerforationEngine(workers=4)
        engine.close()
        sweep = engine.sweep("gaussian", image)
        assert len(sweep.points) == 4
        assert engine._pool is None  # no pool recreated after close()


class TestReferenceCache:
    def test_reference_computed_once_across_sweep(self, image):
        app = CountingGaussian()
        engine = PerforationEngine()
        engine.sweep(app, image, default_configurations(app.halo))
        assert app.reference_calls == 1
        assert app.approximate_calls == 4

    def test_second_sweep_hits_cache(self, image):
        app = CountingGaussian()
        engine = PerforationEngine()
        engine.sweep(app, image, default_configurations(app.halo))
        engine.sweep(app, image, default_configurations(app.halo))
        assert app.reference_calls == 1
        assert engine.references.stats.hits >= 1

    def test_equal_content_different_objects_share_reference(self, image):
        app = CountingGaussian()
        engine = PerforationEngine()
        engine.evaluate(app, image, ROWS1_NN)
        engine.evaluate(app, image.copy(), ROWS1_NN)
        assert app.reference_calls == 1

    def test_timing_cache_hits_across_configs(self, image):
        engine = PerforationEngine()
        engine.sweep("gaussian", image)
        # The baseline timing is shared by all four configurations.
        assert engine.timings.stats.hits >= 3

    def test_cached_reference_is_readonly(self, image):
        """Shared cache entries must not be silently mutable by callers."""
        engine = PerforationEngine()
        reference = engine.reference("gaussian", image)
        with pytest.raises(ValueError):
            reference[0, 0] = 123.0

    def test_subclass_with_same_name_gets_own_cache_entry(self, image):
        """A subclass overriding reference() must not alias the stock app."""
        engine = PerforationEngine()
        engine.reference(GaussianApp(), image)
        counting = CountingGaussian()
        engine.reference(counting, image)
        assert counting.reference_calls == 1  # computed, not aliased

    def test_lru_bound_evicts_old_references(self, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_REFERENCES", 2)
        engine = PerforationEngine()
        app = CountingGaussian()
        images = [generate_image("natural", size=32, seed=s) for s in range(3)]
        for img in images:
            engine.reference(app, img)
        engine.reference(app, images[0])  # evicted -> recomputed
        assert app.reference_calls == 4


class TestInputToken:
    def test_array_token_is_content_based(self):
        a = np.arange(12.0).reshape(3, 4)
        assert input_token(a) == input_token(a.copy())
        assert input_token(a) != input_token(a + 1)

    def test_dataclass_token(self):
        h1 = hotspot_single(size=64, seed=3)
        h2 = hotspot_single(size=64, seed=3)
        h3 = hotspot_single(size=64, seed=4)
        assert input_token(h1) == input_token(h2)
        assert input_token(h1) != input_token(h3)

    def test_unhashable_object_returns_none(self):
        class Opaque:
            pass

        assert input_token(Opaque()) is None


class TestParallelParity:
    """Acceptance: parallel sweeps match the serial path bit for bit."""

    def test_parallel_sweep_identical_to_serial(self, image):
        app = GaussianApp()
        configs = default_configurations(app.halo)
        serial = PerforationEngine(workers=1).sweep(app, image, configs)
        parallel = PerforationEngine(workers=4).sweep(app, image, configs)
        assert [p.config for p in serial.points] == [p.config for p in parallel.points]
        assert [p.error for p in serial.points] == [p.error for p in parallel.points]
        assert [p.speedup for p in serial.points] == [p.speedup for p in parallel.points]
        assert [p.runtime_s for p in serial.points] == [p.runtime_s for p in parallel.points]

    def test_parallel_dataset_identical_to_serial(self):
        dataset = [generate_image("natural", size=64, seed=s) for s in range(5)]
        serial = PerforationEngine(workers=1).evaluate_dataset("gaussian", dataset, ROWS1_NN)
        parallel = PerforationEngine(workers=4).evaluate_dataset("gaussian", dataset, ROWS1_NN)
        assert serial.errors == parallel.errors
        assert serial.speedup == parallel.speedup



class TestEvaluation:
    def test_evaluate_by_app_name(self, image):
        result = PerforationEngine().evaluate("gaussian", image, ROWS1_NN)
        assert result.app_name == "gaussian"
        assert result.error > 0
        assert result.speedup > 1.0

    def test_invalid_config_rejected(self, image):
        with pytest.raises(ConfigurationError):
            PerforationEngine().evaluate("inversion", image, STENCIL1_NN)

    def test_numpy_array_dataset_accepted(self):
        """Regression: ``if not dataset`` used to raise for array datasets."""
        stack = np.stack([generate_image("natural", size=64, seed=s) for s in range(3)])
        result = PerforationEngine().evaluate_dataset("gaussian", stack, ROWS1_NN)
        assert result.summary.count == 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            PerforationEngine().evaluate_dataset("gaussian", [], ROWS1_NN)

    def test_hotspot_inputs_cacheable(self):
        instance = hotspot_single(size=64, seed=21)
        engine = PerforationEngine()
        r1 = engine.evaluate("hotspot", instance, ROWS1_NN)
        r2 = engine.evaluate("hotspot", instance, ROWS1_NN)
        assert r1.error == r2.error
        assert engine.references.stats.hits >= 1

    def test_best_work_group_matches_legacy_observation(self, image):
        shape = PerforationEngine().best_work_group("gaussian", image, ROWS1_NN)
        assert shape[0] >= shape[1]  # the paper's x-major observation


class TestKernelBuildCache:
    """The compiled path parses and analyses each kernel source once per
    process and perforates each (kernel source, config) once; every later
    launch reuses the built kernel."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        """Counts of perforator calls (``perforate``/``accurate``), parses and
        access-pattern analyses, starting from an empty build cache."""
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("perforate", "accurate"):
            method = getattr(KernelPerforator, name)
            monkeypatch.setattr(KernelPerforator, name, counting("perforations", method))
        monkeypatch.setattr(
            perforator, "parse_program", counting("parses", perforator.parse_program)
        )
        for module in (perforator, pass_manager):
            monkeypatch.setattr(
                module, "analyze_kernel", counting("analyses", module.analyze_kernel)
            )
        build_kernel.cache_clear()
        yield counts
        build_kernel.cache_clear()

    def test_repeated_batches_build_once(self, builds):
        engine = PerforationEngine(backend="codegen")
        inputs = [generate_image("natural", size=16, seed=s) for s in range(3)]
        interpreter = PerforationEngine(backend="interpreter")
        expected = [interpreter.run_compiled("gaussian", i) for i in inputs]
        for _ in range(6):
            outputs = engine.run_compiled_batch("gaussian", inputs)
            for output, reference in zip(outputs, expected):
                np.testing.assert_array_equal(output, reference)
        # accurate() transforms a clone of the one parsed tree.
        assert builds == {"perforations": 1, "parses": 1, "analyses": 1}

    def test_one_front_end_per_source(self, builds):
        app = GaussianApp()
        configs = (ACCURATE_CONFIG, *default_configurations(app.halo))
        for config in configs:
            build_kernel(app.kernel_source(), config)
        assert app.perforator() is perforator.perforator_for(app.kernel_source())
        assert builds == {"perforations": len(configs), "parses": 1, "analyses": 1}
        build_kernel.cache_clear()  # forgets the front end too: the next build is cold
        build_kernel(app.kernel_source(), ROWS1_NN)
        assert builds == {"perforations": len(configs) + 1, "parses": 2, "analyses": 2}

    def test_server_builds_each_app_config_once(self, builds):
        spec = TraceSpec(
            apps=("gaussian", "inversion"), requests=24, size=16, inputs_per_app=8, seed=5
        )
        calibration = {app: [generate_image("natural", size=16, seed=77)] for app in spec.apps}

        def serve():
            server = PerforationServer(
                engine=PerforationEngine(backend="codegen"),
                max_batch=3,
                calibration_inputs=calibration,
            )
            launches = []
            real = server.engine.run_compiled_batch

            def spy(app, inputs_batch, config=None, **kwargs):
                launches.append((app.name, config))
                return real(app, inputs_batch, config, **kwargs)

            server.engine.run_compiled_batch = spy
            return server.run_trace(generate_trace(spec)), launches

        cold, launches = serve()
        pairs = set(launches)
        assert len(launches) > len(pairs), "some (app, config) must launch twice"
        sources = len({app for app, _ in pairs})  # one front end per kernel source
        front_ends = {"parses": sources, "analyses": sources}
        assert builds == {"perforations": len(pairs), **front_ends}
        # A second server in the same process launches the same pairs on the
        # kernels already built, with bit-identical outputs.
        warm, relaunches = serve()
        assert set(relaunches) == pairs
        assert builds == {"perforations": len(pairs), **front_ends}
        for a, b in zip(cold, warm):
            assert (a.request_id, a.config_label) == (b.request_id, b.config_label)
            np.testing.assert_array_equal(a.output, b.output)

    def test_threads_racing_on_a_cold_cache_agree(self):
        """Threads share built kernels (and their lazily compiled functions)
        and each source's one front end, which every configuration clones:
        concurrent first launches must give the serial outputs bit for bit."""
        engine = PerforationEngine(backend="codegen")
        inputs = [generate_image("natural", size=16, seed=s) for s in range(4)]
        configs = (ROWS1_NN, STENCIL1_NN, ACCURATE_CONFIG)
        expected = {c: engine.run_compiled_batch("sobel3", inputs, c) for c in configs}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                build_kernel.cache_clear()
                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [
                        (c, pool.submit(engine.run_compiled_batch, "sobel3", inputs, c))
                        for c in configs * 4
                    ]
                    results = [(c, future.result(timeout=60)) for c, future in futures]
                for config, outputs in results:
                    for output, reference in zip(outputs, expected[config]):
                        np.testing.assert_array_equal(output, reference)
        finally:
            sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# The batch error path (reference terms computed once) against the plain one
# ---------------------------------------------------------------------------
def _zeroed_hotspot(grid, mask):
    """``grid`` with the power solved, where ``mask`` is set, so the accurate
    step's output there is zero up to rounding (|output| far below the MRE's
    epsilon)."""
    c = HotspotCoefficients.for_grid(grid.size, grid.size)
    t = grid.temperature
    padded = np.pad(t, 1, mode="edge")
    north, south = padded[:-2, 1:-1], padded[2:, 1:-1]
    west, east = padded[1:-1, :-2], padded[1:-1, 2:]
    power = (
        -t / c.step_div_cap
        - (south + north - 2.0 * t) * c.ry_1
        - (east + west - 2.0 * t) * c.rx_1
        - (c.ambient - t) * c.rz_1
    )
    return HotspotInput(size=grid.size, temperature=t, power=np.where(mask, power, grid.power))


def _batch_input(app, valid):
    """A 32x32 input whose reference is valid for the MRE everywhere
    (``"all"``), in part (``"some"``) or nowhere (``"none"``)."""
    block = np.zeros((32, 32), dtype=bool)
    block[4:16, 8:24] = True
    mask = {"all": np.zeros_like(block), "some": block, "none": np.ones_like(block)}[valid]
    if app == "hotspot":
        return _zeroed_hotspot(hotspot_single(size=32, seed=5), mask)
    # Inversion outputs 255 - x, the filters output 0 on a flat zero area.
    flat = INVERSION_MAX if app == "inversion" else 0.0
    image = generate_image("natural", size=32, seed=5) * 0.5 + 16.0
    return np.where(mask, flat, image)


class TestBatchErrors:
    @pytest.mark.parametrize("valid", ["all", "some", "none"])
    @pytest.mark.parametrize("app", available_applications())
    def test_batch_errors_equal_the_plain_error_of_every_config(self, app, valid):
        engine = PerforationEngine()
        app = engine.resolve_app(app)
        inputs = _batch_input(app.name, valid)
        reference = engine.reference(app, inputs)
        count = int(np.count_nonzero(np.abs(reference) > MRE_EPSILON))
        expected = {"all": count == reference.size, "some": 0 < count < reference.size}
        assert expected.get(valid, count == 0)
        if valid == "none" and app.name != "hotspot":
            assert not reference.any()  # the range fallback of the normalised error
        configs = default_space().configurations(app.halo)
        batch = engine.errors(app, inputs, configs)
        for config, error in zip(configs, batch):
            plain = compute_error(reference, app.approximate(inputs, config), app.error_metric)
            assert error.hex() == plain.hex(), config.label
