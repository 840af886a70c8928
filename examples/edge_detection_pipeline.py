"""Edge-detection pipeline under an error budget.

The paper's introduction motivates perforation with image pipelines whose
stages tolerate small input errors.  This example builds the classic
noise-reduction + edge-detection pipeline (Gaussian blur followed by a
Sobel operator), then uses the quality-aware session API — one
:class:`repro.api.PerforationEngine` with one auto-tuned session per stage
— to pick perforation configurations that keep the end-to-end error within
a budget while maximising the modelled speedup on the simulated GPU.

Run with:  python examples/edge_detection_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro.api import PerforationEngine
from repro.core import compute_error
from repro.core.config import ACCURATE_CONFIG
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
    blur_session = engine.session(app="gaussian").autotune(
        error_budget=error_budget / 4, calibration_inputs=calibration
    )
    print(blur_session.report())
    print()
    edge_session = engine.session(app="sobel3").autotune(
        error_budget=error_budget / 2, calibration_inputs=calibration
    )
    print(edge_session.report())
    print()

    blur_config = blur_session.selected
    edge_config = edge_session.selected

    accurate = run_pipeline(engine, test_image, ACCURATE_CONFIG, ACCURATE_CONFIG)
    approximate = run_pipeline(engine, test_image, blur_config, edge_config)
    end_to_end_error = compute_error(
        accurate, approximate, edge_session.app.error_metric
    )

    blur_speedup = blur_session.evaluate(test_image, blur_config).speedup
    edge_speedup = edge_session.evaluate(test_image, edge_config).speedup
    image_size = blur_session.app.global_size(test_image)
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
