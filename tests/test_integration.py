"""Integration tests across the whole stack.

These tests tie the layers together the way a user of the library would:
OpenCL C source -> compiler passes -> simulator execution, compared against
the NumPy fast path used by the experiments, and the end-to-end pipeline
claims of the paper.
"""

import numpy as np
import pytest

from repro.api import PerforationEngine
from repro.apps import GaussianApp, InversionApp, get_application
from repro.baselines import ParaproxScheme, evaluate_paraprox
from repro.clsim import Buffer, Executor, NDRange
from repro.core import (
    ApproximationConfig,
    NEAREST_NEIGHBOR,
    ROWS1_NN,
    STENCIL1_NN,
    compute_error,
    pareto_front,
)
from repro.data import generate_image


def run_compiled(perforated, image, local):
    # The codegen backend makes the compiler-path tests cheap enough for
    # the fast tier; its equivalence to the reference interpreter backend is
    # pinned down by tests/clsim/test_backend_parity.py.
    executor = Executor(backend="codegen")
    kernel = perforated.executable()
    height, width = image.shape
    inb, outb = Buffer(image, "input"), Buffer(np.zeros_like(image), "output")
    executor.run(
        kernel,
        NDRange((width, height), local),
        {"input": inb, "output": outb, "width": width, "height": height},
    )
    return outb.array


class TestCompilerPathAgainstNumpyPath:
    """The compiled perforated kernels and the sampler-based fast path must
    implement the same approximation."""

    @pytest.mark.parametrize("app_name", ["gaussian", "inversion"])
    def test_rows1_nn_outputs_match(self, app_name):
        """The compiled kernel and the NumPy fast path agree *everywhere*,
        including work-group boundary rows: the tile-aware row sampler
        reproduces the kernel's per-tile reconstruction (clamped halo fetch at
        the image border, reconstruction clamped to the rows of the own tile)
        bit for bit."""
        app = get_application(app_name)
        image = generate_image("natural", size=32, seed=5)
        config = ApproximationConfig(
            scheme=ROWS1_NN.scheme, reconstruction=NEAREST_NEIGHBOR, work_group=(8, 8)
        )
        fast_path = app.approximate(image, config)
        compiled = run_compiled(app.perforator().perforate(config), image, (8, 8))
        np.testing.assert_array_equal(compiled, fast_path)

    def test_stencil_outputs_match(self):
        app = GaussianApp()
        image = generate_image("natural", size=32, seed=6)
        config = STENCIL1_NN.with_work_group((8, 8))
        fast_path = app.approximate(image, config)
        compiled = run_compiled(app.perforator().perforate(config), image, (8, 8))
        np.testing.assert_array_equal(compiled, fast_path)

    def test_accurate_kernel_matches_reference(self):
        app = GaussianApp()
        image = generate_image("flat", size=32, seed=7)
        compiled = run_compiled(app.perforator().accurate(), image, (8, 8))
        np.testing.assert_allclose(compiled, app.reference(image), atol=1e-9)


@pytest.mark.slow
class TestPaperLevelClaims:
    @pytest.fixture(scope="class")
    def image(self):
        return generate_image("natural", size=256, seed=42)

    def test_speedups_within_paper_band(self, image, device):
        """All six applications speed up; the band straddles the paper's 1.6-3x."""
        from repro.data import hotspot_single

        engine = PerforationEngine(device=device)
        speedups = {}
        for name in ("gaussian", "inversion", "median", "hotspot", "sobel3", "sobel5"):
            app = get_application(name)
            inputs = hotspot_single(size=256) if name == "hotspot" else image
            config = ROWS1_NN if app.halo == 0 or name == "hotspot" else STENCIL1_NN
            result = engine.evaluate(app, inputs, config)
            speedups[name] = result.speedup
        assert all(s > 1.0 for s in speedups.values())
        assert speedups["sobel5"] == max(speedups.values())
        assert min(speedups.values()) == pytest.approx(speedups["inversion"], rel=0.2)

    def test_pareto_front_contains_our_configurations(self, image, device):
        app = GaussianApp()
        engine = PerforationEngine(device=device)
        ours = [engine.evaluate(app, image, config) for config in (ROWS1_NN, STENCIL1_NN)]
        paraprox = [
            evaluate_paraprox(app, image, ParaproxScheme(kind, level), device=device)
            for kind in ("rows", "center")
            for level in (1, 2)
        ]
        front = pareto_front(list(ours) + list(paraprox))
        our_labels = {r.config.label for r in ours}
        front_labels = set()
        for point in front:
            label = getattr(point, "label", None) or point.config.label
            front_labels.add(label)
        assert front_labels & our_labels

    def test_error_scales_with_image_class(self, device):
        app = InversionApp()
        errors = {}
        for image_class in ("flat", "natural", "pattern"):
            image = generate_image(image_class, size=128, seed=3)
            reference = app.reference(image)
            approx = app.approximate(image, ROWS1_NN)
            errors[image_class] = compute_error(reference, approx, app.error_metric)
        assert errors["flat"] < errors["natural"] < errors["pattern"]
