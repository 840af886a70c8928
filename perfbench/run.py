"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-distinct --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the separate traced run that prints the per-layer metrics.  The
metric names and units come from ``BENCHMARK.json``; the workloads are
described in ``perfbench/workloads.py`` and the tracing in
``perfbench/layers.py``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Each run keeps its on-disk state (codegen cache, tuning database, fleet
sockets, temporary files) in a fresh directory under ``.perfbench-run/``
and deletes it afterwards, so no run sees another's stores.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fleet workers and set-up samples are spawned processes that import this
# file again (as ``__mp_main__``): keep this module's top level inert.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

#: Environment the program reads its stores from, pointed into the run dir.
STORE_ENV = {"REPRO_CODEGEN_CACHE": "codegen", "REPRO_TUNING_DB": "tuning-db", "TMPDIR": "tmp"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def isolate(run_dir: Path) -> None:
    """Point every store the program touches at the fresh run directory."""
    for variable, name in STORE_ENV.items():
        path = run_dir.resolve() / name
        path.mkdir(parents=True, exist_ok=True)
        os.environ[variable] = str(path)
    for variable in ("REPRO_TRACE", "REPRO_METRICS"):
        os.environ.pop(variable, None)
    tempfile.tempdir = None  # re-read TMPDIR


def stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts for spawned children."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.chdir(ROOT)  # relative paths keep fleet socket paths short

    import numpy as np

    import workloads

    factory = workloads.WORKLOADS.get(args.workload)
    if factory is None:
        print(
            f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    run_dir = Path(".perfbench-run") / str(os.getpid())
    try:
        isolate(run_dir)
        workload = factory(args.seed, args.seconds, run_dir)
        if args.trace:
            trace_path = Path(".perfbench-traces") / f"{args.workload}-seed{args.seed}.jsonl"
            result = workload.run_traced(trace_path)
            wanted = spec["per_layer"]
        else:
            result = workload.run()
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()  # only if no concurrent run still uses it
        stop_resource_tracker()

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": result.backend,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print("context " + json.dumps(context))
    for note in result.notes:
        print("note    " + note)
    for name, ok in result.checks:
        print(f"check   {'ok  ' if ok else 'FAIL'} {name}")
    print(f"check   {result.attempted - result.failed}/{result.attempted} {result.passed_what}")
    metrics = {}
    for metric in wanted:
        value = result.metrics[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"metric  {metric['name']} = {value:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
