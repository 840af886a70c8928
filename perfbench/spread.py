"""Run one workload over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload fleet-hot --seeds 1-10 --out spread.json

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every metric its median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median
-- the steadiness figure each end-to-end metric's bound is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write every run's result here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        command = [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            args.workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
        *report, last = done.stdout.strip().splitlines()
        result = json.loads(last)
        runs.append({"seed": seed, **result, "report": report})
        print(
            f"seed {seed}: correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}",
            flush=True,
        )

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'metric':<26} {'median':>12} {'iqr/median':>10} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print(f"{name:<26} {median:>12.6g} {spread:>10.4f} {'' if bound is None else bound:>6}")
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
