"""Quick start: perforate a kernel and inspect error vs. speedup.

The example walks through the paper's core idea in three steps:

1. the 1D loop-perforation illustration of Section 4.1 (output perforation
   vs. input perforation with reconstruction);
2. evaluating the paper's configurations (Rows1/Rows2/Stencil1, NN/LI) on
   the Gaussian benchmark with the simulated FirePro W5100, through
   :class:`repro.api.PerforationEngine`;
3. using the compiler path to emit the perforated OpenCL C kernel you would
   run on a real GPU.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import math

import numpy as np

from repro.api import PerforationEngine
from repro.baselines import compare_strategies
from repro.core import ROWS1_NN, default_configurations
from repro.data import generate_image


def part_one_loop_perforation() -> None:
    print("=" * 72)
    print("1. Loop perforation on a 1D loop (Section 4.1 of the paper)")
    print("=" * 72)
    xs = np.linspace(0, 4 * math.pi, 300)
    signal = 10.0 + 3.0 * np.sin(xs) + 0.1 * xs

    def calc(value: float) -> float:
        return value * value + 1.0

    for name, outcome in compare_strategies(signal, calc, period=3).items():
        print(
            f"  {name:<22s} error {outcome.error * 100:6.2f}%   "
            f"loads saved {outcome.load_savings:5.1%}   "
            f"calc() calls saved {outcome.evaluation_savings:5.1%}"
        )
    print()


def part_two_kernel_perforation(engine: PerforationEngine) -> None:
    print("=" * 72)
    print("2. Kernel perforation of the Gaussian benchmark (simulated W5100)")
    print("=" * 72)
    app = engine.resolve_app("gaussian")
    image = generate_image("natural", size=512, seed=42)
    for result in engine.evaluate_many(app, image, default_configurations(app.halo)):
        print(f"  {result.describe()}")
    print()


def part_three_compiler_output(engine: PerforationEngine) -> None:
    print("=" * 72)
    print("3. Generated OpenCL C for Gaussian with Rows1:NN (excerpt)")
    print("=" * 72)
    app = engine.resolve_app("gaussian")
    perforated = app.perforator().perforate(ROWS1_NN.with_work_group((16, 16)))
    lines = perforated.source.splitlines()
    for line in lines[:28]:
        print("  " + line)
    print("  ...")
    print()
    print("Transformation notes:")
    for note in perforated.notes:
        print(f"  - {note}")


def main() -> None:
    engine = PerforationEngine(device="firepro-w5100", workers="auto")
    part_one_loop_perforation()
    part_two_kernel_perforation(engine)
    part_three_compiler_output(engine)


if __name__ == "__main__":
    main()
