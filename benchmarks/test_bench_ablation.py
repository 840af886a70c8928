"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's figures and isolate the contribution of the
individual ingredients:

* local-memory staging on/off (the "local memory-aware" part of the title);
* reconstruction technique (NN vs LI) across image classes;
* perforation aggressiveness (Rows1 vs Rows2) on the speedup/error knee;
* the device profile (FirePro-class vs a high-bandwidth GPU), showing that
  the technique matters most when DRAM bandwidth/latency is the bottleneck.
"""

from bench_utils import run_once

from repro.api import PerforationEngine
from repro.apps import GaussianApp, Sobel5App
from repro.clsim import TimingModel, firepro_w5100, generic_hbm_gpu
from repro.core import (
    ACCURATE_CONFIG,
    LINEAR_INTERPOLATION,
    NEAREST_NEIGHBOR,
    ROWS1_NN,
    ROWS2_NN,
    STENCIL1_NN,
    ApproximationConfig,
    compute_error,
)
from repro.data import generate_image
from repro.experiments.common import format_table


def test_ablation_local_memory_staging(benchmark, archive):
    """Staging the stencil input in local memory is what makes the accurate
    kernel fast — and perforation still beats that optimised version."""

    def run():
        app = Sobel5App()
        image = generate_image("natural", size=1024, seed=42)
        device = firepro_w5100()
        model = TimingModel(device)
        global_size = app.global_size(image)
        naive_profile, nd = app.profile(ACCURATE_CONFIG, global_size)
        naive = model.estimate(naive_profile, nd).total_time_s
        # The optimised (local-memory) accurate kernel: same scheme profile
        # machinery, but with the full tile staged.
        app.baseline_uses_local_memory = True
        staged_profile, nd = app.profile(ACCURATE_CONFIG, global_size)
        staged = model.estimate(staged_profile, nd).total_time_s
        app.baseline_uses_local_memory = False
        perforated = PerforationEngine(device=device).evaluate(app, image, STENCIL1_NN)
        return naive, staged, perforated.approx_time_s

    naive, staged, perforated = run_once(benchmark, run)
    rows = [
        ["naive accurate (global reads)", f"{naive * 1e3:.3f} ms", "1.00x"],
        ["accurate + local staging", f"{staged * 1e3:.3f} ms", f"{naive / staged:.2f}x"],
        ["stencil perforation (ours)", f"{perforated * 1e3:.3f} ms", f"{naive / perforated:.2f}x"],
    ]
    archive(
        "ablation_local_memory",
        "Ablation: local-memory staging (Sobel5, 1024x1024)\n"
        + format_table(["Variant", "Runtime", "Speedup vs naive"], rows),
    )
    assert staged < naive
    assert perforated < staged


def test_ablation_reconstruction_technique(benchmark, archive):
    """LI beats NN on smooth content; the advantage shrinks on patterns."""

    def run():
        app = GaussianApp()
        results = {}
        for image_class in ("flat", "natural", "pattern"):
            image = generate_image(image_class, size=512, seed=11)
            reference = app.reference(image)
            row = {}
            for label, technique in (("NN", NEAREST_NEIGHBOR), ("LI", LINEAR_INTERPOLATION)):
                config = ApproximationConfig(scheme=ROWS1_NN.scheme, reconstruction=technique)
                row[label] = compute_error(
                    reference, app.approximate(image, config), app.error_metric
                )
            results[image_class] = row
        return results

    results = run_once(benchmark, run)
    rows = [
        [image_class, f"{row['NN'] * 100:.2f}%", f"{row['LI'] * 100:.2f}%"]
        for image_class, row in results.items()
    ]
    archive(
        "ablation_reconstruction",
        "Ablation: reconstruction technique (Gaussian, Rows1)\n"
        + format_table(["Image class", "Rows1:NN error", "Rows1:LI error"], rows),
    )
    for row in results.values():
        assert row["LI"] <= row["NN"] * 1.05


def test_ablation_aggressiveness_and_device(benchmark, archive):
    """Rows2 buys its extra speedup with a large error increase, and the
    absolute time saved by perforation shrinks on a bandwidth-rich device
    (the kernels stop being memory-bound)."""

    def run():
        app = GaussianApp()
        image = generate_image("natural", size=1024, seed=42)
        firepro = firepro_w5100()
        hbm = generic_hbm_gpu()
        out = {}
        for device_name, device in (("firepro-w5100", firepro), ("generic-hbm", hbm)):
            engine = PerforationEngine(device=device)
            rows1 = engine.evaluate(app, image, ROWS1_NN)
            rows2 = engine.evaluate(app, image, ROWS2_NN)
            out[device_name] = {"rows1": rows1, "rows2": rows2}
        return out

    results = run_once(benchmark, run)
    rows = []
    for device_name, entry in results.items():
        for label, result in entry.items():
            rows.append(
                [device_name, label, f"{result.speedup:.2f}x", f"{result.error * 100:.2f}%"]
            )
    archive(
        "ablation_aggressiveness_device",
        "Ablation: aggressiveness and device profile (Gaussian, 1024x1024)\n"
        + format_table(["Device", "Scheme", "Speedup", "Error"], rows),
    )
    firepro = results["firepro-w5100"]
    hbm = results["generic-hbm"]
    assert firepro["rows2"].error > firepro["rows1"].error
    assert firepro["rows2"].speedup > firepro["rows1"].speedup
    # On the bandwidth-rich device the kernels are much faster to begin with,
    # so the absolute time perforation saves per launch is far smaller.
    firepro_saving = firepro["rows1"].baseline_time_s - firepro["rows1"].approx_time_s
    hbm_saving = hbm["rows1"].baseline_time_s - hbm["rows1"].approx_time_s
    assert hbm_saving < firepro_saving
