"""Auto-tuning: search schemes, reconstructions and work-group sizes.

The paper's conclusion sketches a library that automatically applies and
tunes kernel perforation.  This example runs that search for the Median
benchmark with :class:`repro.autotune.Tuner`: successive halving over the
default search space (row, column and stencil schemes x both
reconstruction techniques x the ten work-group shapes of Figure 9) screens
every candidate on downscaled inputs and evaluates only the survivors at
full size, on the engine's parallel workers with a shared reference cache.
A Pareto analysis and a pick for a 5% error budget follow.

Run with:  python examples/autotuning.py
"""

from __future__ import annotations

from repro.api import PerforationEngine
from repro.autotune import Tuner
from repro.core.config import ACCURATE_CONFIG, ROWS1_NN, STENCIL1_NN
from repro.data import generate_image


def main() -> None:
    engine = PerforationEngine(workers="auto")
    app = engine.resolve_app("median")
    image = generate_image("natural", size=512, seed=7)

    print("Search: schemes x reconstruction x work-group shapes (Median)")
    print("-" * 72)
    result = Tuner(engine, db=False).tune(app, image)
    print(
        f"  evaluations : {result.evaluations} "
        f"({result.full_evaluations} at full size, the rest on downscaled inputs)"
    )

    print("\nPareto-optimal configurations (speedup vs error):")
    for observation in result.front():
        wx, wy = observation.config.work_group
        print(
            f"  {observation.config.label:<12s} wg {wx:>3d}x{wy:<3d}  "
            f"speedup {observation.speedup:4.2f}x  error {observation.error * 100:5.2f}%"
        )

    budget = 0.05
    choice = result.best_for_budget(budget) or ACCURATE_CONFIG  # None: nothing fits
    picked = engine.evaluate(app, image, choice)
    wx, wy = choice.work_group
    print(
        f"\nBest configuration for a {budget:.0%} error budget: {choice.label} wg {wx}x{wy} "
        f"(speedup {picked.speedup:4.2f}x, error {picked.error * 100:5.2f}%)"
    )

    print("\nWork-group tuning (paper Figure 9 observation):")
    for label, config in (
        ("Baseline", ACCURATE_CONFIG),
        ("Rows1:NN", ROWS1_NN),
        ("Stencil1:NN", STENCIL1_NN),
    ):
        shape = engine.best_work_group(app, image, config)
        runtime = engine.timing(
            app, config.with_work_group(shape), app.global_size(image)
        ).total_time_s
        print(
            f"  best shape for {label:<12s}: {shape[0]:>3d}x{shape[1]:<3d} "
            f"(modelled runtime {runtime * 1e3:.3f} ms)"
        )
    print(
        "\nNote how the optimum differs between the accurate baseline and the\n"
        "approximate kernels — a system tuned for the baseline is not optimal\n"
        "for the perforated kernels (Section 6.3 of the paper)."
    )


if __name__ == "__main__":
    main()
