"""Edge-detection pipeline under an error budget.

The paper's introduction motivates perforation with image pipelines whose
stages tolerate small input errors.  This example builds the classic
noise-reduction + edge-detection pipeline (Gaussian blur followed by a
Sobel operator), then calibrates each stage on one shared
:class:`repro.api.PerforationEngine` and selects per stage
(:mod:`repro.api.calibration`) the perforation configurations that keep
the end-to-end error within a budget while maximising the modelled speedup
on the simulated GPU.

Run with:  python examples/edge_detection_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro.api import PerforationEngine
from repro.api.calibration import SAFETY_MARGIN, calibrate_configs, select
from repro.core import compute_error
from repro.core.config import ACCURATE_CONFIG, default_configurations
from repro.data import generate_image
from repro.data.images import ImageClass


def run_pipeline(engine: PerforationEngine, image: np.ndarray, blur_config, edge_config) -> np.ndarray:
    """Blur then edge-detect, each stage under its own configuration."""
    blur = engine.resolve_app("gaussian")
    edges = engine.resolve_app("sobel3")
    blurred = (
        blur.reference(image)
        if blur_config.is_accurate
        else blur.approximate(image, blur_config)
    )
    return (
        edges.reference(blurred)
        if edge_config.is_accurate
        else edges.approximate(blurred, edge_config)
    )


def tune_stage(engine: PerforationEngine, name: str, budget: float, calibration):
    """Calibrate one stage's default configurations, print the ladder and
    return the fastest one admissible under ``budget`` (else accurate)."""
    app = engine.resolve_app(name)
    ladder = calibrate_configs(engine, app, calibration, default_configurations(app.halo))
    rung = select(ladder, budget)
    selected = rung.config if rung is not None else ACCURATE_CONFIG
    print(f"Calibration of {name!r} (budget {budget:.2%}, margin {SAFETY_MARGIN:.0%})")
    for entry in ladder:
        marker = "*" if entry is rung else " "
        print(
            f" {marker} {entry.config.label:<14s} mean err {entry.mean_error * 100:6.2f}%  "
            f"max err {entry.max_error * 100:6.2f}%  speedup {entry.speedup:5.2f}x"
        )
    print(f"selected: {selected.label}\n")
    return selected


def main() -> None:
    calibration = [
        generate_image(ImageClass.FLAT, size=512, seed=1),
        generate_image(ImageClass.NATURAL, size=512, seed=2),
    ]
    test_image = generate_image(ImageClass.NATURAL, size=512, seed=42)
    error_budget = 0.05

    engine = PerforationEngine(workers="auto")

    print("Calibrating per-stage configurations for a 5% end-to-end error budget...\n")
    # Errors compound through the pipeline (the edge detector amplifies any
    # error the blur stage leaves behind), so each stage gets a conservative
    # slice of the budget: a quarter for the blur, half for the edges.
    blur_config = tune_stage(engine, "gaussian", error_budget / 4, calibration)
    edge_config = tune_stage(engine, "sobel3", error_budget / 2, calibration)

    accurate = run_pipeline(engine, test_image, ACCURATE_CONFIG, ACCURATE_CONFIG)
    approximate = run_pipeline(engine, test_image, blur_config, edge_config)
    end_to_end_error = compute_error(
        accurate, approximate, engine.resolve_app("sobel3").error_metric
    )

    blur_speedup = engine.evaluate("gaussian", test_image, blur_config).speedup
    edge_speedup = engine.evaluate("sobel3", test_image, edge_config).speedup
    image_size = engine.resolve_app("gaussian").global_size(test_image)
    accurate_time = (
        engine.timing("gaussian", ACCURATE_CONFIG, image_size).total_time_s
        + engine.timing("sobel3", ACCURATE_CONFIG, image_size).total_time_s
    )
    approx_time = (
        engine.timing("gaussian", blur_config, image_size).total_time_s
        + engine.timing("sobel3", edge_config, image_size).total_time_s
    )

    print("Pipeline summary")
    print("-" * 72)
    print(f"  blur stage  : {blur_config.label:<14s} (stage speedup {blur_speedup:.2f}x)")
    print(f"  edge stage  : {edge_config.label:<14s} (stage speedup {edge_speedup:.2f}x)")
    print(f"  end-to-end modelled speedup : {accurate_time / approx_time:.2f}x")
    print(f"  end-to-end error            : {end_to_end_error * 100:.2f}% (budget {100 * error_budget:.0f}%)")
    print(f"  within budget               : {'yes' if end_to_end_error <= error_budget else 'no'}")
    for name, store in (("references", engine.references), ("timings", engine.timings)):
        stats = store.stats
        print(
            f"  engine {name:<10s} cache     : {stats.hits} hits / {stats.misses} misses "
            f"/ {stats.evictions} evictions"
        )


if __name__ == "__main__":
    main()
