"""Command-line entry point: ``python -m repro.experiments <name>``.

Examples
--------
Run one experiment at paper scale::

    python -m repro.experiments figure8

Run everything quickly (small inputs, for smoke testing)::

    python -m repro.experiments all --quick

Write a full Markdown report::

    python -m repro.experiments all --output report.md
"""

from __future__ import annotations

import argparse
import sys

from ..clsim.backends import available_backends
from .common import make_engine
from .report import available_experiments, run_all, run_experiment, write_report


def _workers_arg(value: str):
    if value == "auto":
        return value
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"workers must be positive, got {workers}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the tables and figures of the paper's evaluation.",
    )
    parser.add_argument(
        "experiment",
        choices=available_experiments() + ["all", "serve-bench", "autotune"],
        help="which experiment to run ('serve-bench' exercises the "
        "repro.serve batch-serving subsystem, 'autotune' the "
        "repro.autotune search strategies)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use small inputs (fast smoke-test mode)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write a Markdown report to this path instead of printing",
    )
    parser.add_argument(
        "--workers",
        default="auto",
        type=_workers_arg,
        help="engine worker-pool size for parallel sweeps (positive integer or "
        "'auto'); for serve-bench, a value >= 2 instead selects fleet mode: "
        "that many repro.fleet worker processes vs one in-process server",
    )
    parser.add_argument(
        "--device",
        default=None,
        help="device profile to simulate (see repro.clsim.device.available_devices)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=available_backends(),
        help="execution backend for compiled-kernel runs "
        "(default: the interpreter backend)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record observability spans (repro.obs) and write a Chrome "
        "trace-event JSON (chrome://tracing / Perfetto) to PATH; in fleet "
        "mode worker spans merge into the same file",
    )
    serve = parser.add_argument_group("serve-bench options")
    serve.add_argument(
        "--requests", type=int, default=None, help="trace length (serve-bench)"
    )
    serve.add_argument(
        "--size", type=int, default=None, help="input size (serve-bench)"
    )
    serve.add_argument(
        "--seed", type=int, default=None, help="trace seed (serve-bench)"
    )
    serve.add_argument(
        "--max-batch", type=int, default=8, help="micro-batch cap (serve-bench)"
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help="fleet mode only: kill worker 0 after its first request and "
        "require recovery to complete the trace bit-identically "
        "(serve-bench with --workers >= 2)",
    )
    autotune = parser.add_argument_group("autotune options")
    autotune.add_argument(
        "--app", default="gaussian", help="application to tune (autotune)"
    )
    autotune.add_argument(
        "--strategy",
        default="successive-halving",
        help="search strategy: grid, random, hill-climb, successive-halving "
        "(autotune)",
    )
    autotune.add_argument(
        "--evals",
        type=int,
        default=None,
        help="evaluation budget across all fidelities (autotune; default unlimited)",
    )
    autotune.add_argument(
        "--budget",
        type=float,
        default=None,
        help="error budget whose selected configuration is reported (autotune)",
    )
    autotune.add_argument(
        "--db",
        default="off",
        help="tuning database: a directory path, 'default' for the "
        "REPRO_TUNING_DB environment default, or 'off' (autotune; default off "
        "so evaluation counts are honest)",
    )
    return parser


def _run_serve_bench(args, parser: argparse.ArgumentParser) -> int:
    from .serve_bench import render, run, write_report

    if args.backend is not None:
        parser.error(
            "serve-bench compares the codegen and interpreter backends "
            "by design; --backend does not apply"
        )
    if isinstance(args.workers, int) and args.workers >= 2:
        return _run_serve_bench_fleet(args)
    if args.chaos:
        parser.error(
            "--chaos requires fleet mode: pass --workers N with N >= 2"
        )
    result = run(
        quick=args.quick,
        requests=args.requests,
        size=args.size,
        seed=args.seed,
        max_batch=args.max_batch,
        device=args.device,
        workers=args.workers,
    )
    path = write_report(result, args.output)
    print(render(result))
    print(f"\nreport written to {path}")
    return 0 if result.passed else 1


def _run_serve_bench_fleet(args) -> int:
    from .serve_bench import render_fleet, run_fleet, write_fleet_report

    result = run_fleet(
        quick=args.quick,
        requests=args.requests,
        size=args.size,
        seed=args.seed,
        max_batch=args.max_batch,
        device=args.device,
        workers=args.workers,
        chaos=args.chaos,
    )
    # Quick runs are smoke tests and chaos walls include recovery replay:
    # neither may overwrite the full-size record the regression gate
    # compares against.
    path = write_fleet_report(result, args.output, record=not args.quick and not args.chaos)
    print(render_fleet(result))
    print(f"\nreport written to {path}")
    return 0 if result.passed else 1


def _run_autotune(args, parser: argparse.ArgumentParser) -> int:
    from .autotune_bench import render, run, write_report

    if args.backend is not None:
        parser.error(
            "autotune evaluates configurations on the NumPy fast path; "
            "--backend does not apply"
        )
    db = args.db
    if db.strip().lower() == "default":
        db = None  # resolve from REPRO_TUNING_DB / the default directory
    result = run(
        quick=args.quick,
        app=args.app,
        size=args.size,
        strategy=args.strategy,
        seed=args.seed if args.seed is not None else 0,
        evals=args.evals,
        db=db,
        device=args.device,
        workers=args.workers,
    )
    if args.budget is not None:
        config = result.tuned.best_for_budget(args.budget)
        label = config.describe() if config is not None else "accurate (nothing admissible)"
        print(f"selected for budget {args.budget:.2%}: {label}\n")
    path = write_report(result, args.output)
    print(render(result))
    print(f"\nreport written to {path}")
    return 0 if result.passed else 1


def _dispatch(args, parser: argparse.ArgumentParser) -> int:
    if args.experiment == "serve-bench":
        return _run_serve_bench(args, parser)
    if args.experiment == "autotune":
        return _run_autotune(args, parser)
    engine = make_engine(device=args.device, workers=args.workers, backend=args.backend)
    if args.experiment == "all":
        if args.output:
            path = write_report(args.output, quick=args.quick, engine=engine)
            print(f"report written to {path}")
        else:
            print(run_all(quick=args.quick, engine=engine))
        return 0
    print(run_experiment(args.experiment, quick=args.quick, engine=engine))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        from ..obs.trace import install

        tracer = install(process="main")
    try:
        return _dispatch(args, parser)
    finally:
        if tracer is not None:
            from ..obs.export import write_chrome_trace

            write_chrome_trace(args.trace, tracer.spans(), dropped=tracer.dropped)
            print(f"trace written to {args.trace}")


if __name__ == "__main__":
    sys.exit(main())
