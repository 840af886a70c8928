"""``autotune`` — autotuner-efficiency benchmark of the ``repro.autotune`` subsystem.

Runs the exhaustive grid sweep (the paper's Section 6.3/6.4 procedure,
generalised to the autotuner's full search space) and a budget-aware
strategy side by side on one application, and reports

* the Pareto front each one found (they must agree — the strategy is only
  useful if it reproduces the exhaustive front);
* how many *full-fidelity* evaluations each spent — the figure of merit is
  the ratio ``exhaustive / strategy`` (higher is better; the acceptance
  bar for successive-halving on gaussian is >= 2.5x, i.e. the strategy
  reaches the reference front with at most 40% of the exhaustive
  evaluations);
* the budget-indexed ladder of the tuned result, and the tuning-database
  statistics when persistence is enabled.

Run it via ``python -m repro.experiments autotune`` (``--quick`` for the
CI smoke configuration); the machine-readable record consumed by
``benchmarks/check_regression.py`` is written by
``benchmarks/test_bench_autotune.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..autotune import Tuner, TuningResult
from ..autotune.space import config_key
from ..data import generate_image
from .common import format_table, make_engine

#: Required ratio of exhaustive over strategy full-fidelity evaluations
#: (2.5x == the strategy spends at most 40% of the exhaustive evaluations).
REQUIRED_EVAL_RATIO = 2.5

#: Error budgets reported in the budget-indexed ladder.
LADDER_BUDGETS = (0.005, 0.01, 0.03, 0.05, 0.10)

#: Default input sizes (full / ``--quick``).
FULL_SIZE = 256
QUICK_SIZE = 64

#: Default location of the written report.
DEFAULT_RESULTS_PATH = Path("benchmarks") / "results" / "autotune_bench.txt"


@dataclass
class AutotuneBenchResult:
    """Everything the report renders."""

    app_name: str
    size: int
    strategy_name: str
    seed: int
    exhaustive: TuningResult
    tuned: TuningResult
    db_root: str | None
    db_hits: int
    db_misses: int

    @property
    def fronts_match(self) -> bool:
        """Whether the strategy reproduced the exhaustive Pareto front
        (same configurations)."""
        reference = {config_key(o.config) for o in self.exhaustive.front()}
        tuned = {config_key(o.config) for o in self.tuned.front()}
        return reference == tuned

    @property
    def eval_ratio(self) -> float:
        """Exhaustive over strategy full-fidelity evaluations (higher is
        better; only meaningful when the fronts match)."""
        if self.tuned.full_evaluations == 0:
            return float("inf")
        return self.exhaustive.full_evaluations / self.tuned.full_evaluations

    @property
    def gate_applies(self) -> bool:
        """The CI bar applies to the multi-fidelity strategy (the others
        are comparison points, not the subsystem's headline)."""
        return self.strategy_name == "successive-halving"

    @property
    def passed(self) -> bool:
        if not self.gate_applies:
            return True
        return self.fronts_match and self.eval_ratio >= REQUIRED_EVAL_RATIO


def run(
    quick: bool = False,
    app: str = "gaussian",
    size: int | None = None,
    strategy: str = "successive-halving",
    seed: int = 0,
    evals: int | None = None,
    db=False,
    device=None,
    workers: int | str = "auto",
) -> AutotuneBenchResult:
    """Run the exhaustive sweep and ``strategy`` on ``app`` and compare.

    ``db`` selects the tuning database (default off, so the benchmark
    measures honest evaluation counts; pass a path or ``None`` for the
    environment default to exercise persistence).
    """
    if size is None:
        size = QUICK_SIZE if quick else FULL_SIZE
    engine = make_engine(device=device, workers=workers)
    image = generate_image("natural", size=size, seed=42)
    tuner = Tuner(engine, seed=seed, db=db)

    exhaustive = tuner.tune(app, image, strategy="grid")
    tuned = tuner.tune(app, image, strategy=strategy, max_evals=evals)

    stats = tuner.db.stats if tuner.db is not None else None
    return AutotuneBenchResult(
        app_name=app,
        size=size,
        strategy_name=strategy,
        seed=seed,
        exhaustive=exhaustive,
        tuned=tuned,
        db_root=str(tuner.db.root) if tuner.db is not None else None,
        db_hits=stats.hits if stats is not None else 0,
        db_misses=stats.misses if stats is not None else 0,
    )


def render(result: AutotuneBenchResult) -> str:
    """Text report of one autotune benchmark run."""
    exhaustive, tuned = result.exhaustive, result.tuned
    lines = [
        f"Autotune benchmark: {result.app_name} ({result.size}x{result.size}), "
        f"strategy {result.strategy_name!r}, seed {result.seed}",
        "",
        f"exhaustive sweep    : {exhaustive.full_evaluations:4d} full-fidelity evaluations "
        f"({len(exhaustive.front())} Pareto-optimal configs)",
        f"{result.strategy_name:<20s}: {tuned.full_evaluations:4d} full-fidelity evaluations "
        f"({tuned.evaluations} total incl. screening)"
        + (" [from tuning DB]" if tuned.from_db else ""),
        f"evaluation ratio    : {result.eval_ratio:6.2f}x "
        f"(required: >= {REQUIRED_EVAL_RATIO:.1f}x on successive-halving)",
        f"fronts match        : {'yes' if result.fronts_match else 'NO'}",
        "",
        "Pareto front (exhaustive reference):",
        format_table(
            ["config", "work group", "error", "speedup"],
            [
                [
                    o.config.label,
                    f"{o.config.work_group[0]}x{o.config.work_group[1]}",
                    f"{o.error * 100:6.2f}%",
                    f"{o.speedup:5.2f}x",
                ]
                for o in exhaustive.front()
            ],
        ),
        "",
        "Budget-indexed ladder (tuned result):",
    ]
    ladder = tuned.budget_ladder(LADDER_BUDGETS)
    rows = []
    for budget in LADDER_BUDGETS:
        config = ladder[budget]
        rows.append(
            [
                f"{budget * 100:5.1f}%",
                config.label if config is not None else "(accurate)",
                f"{config.work_group[0]}x{config.work_group[1]}" if config is not None else "-",
            ]
        )
    lines.append(format_table(["error budget", "config", "work group"], rows))
    if result.db_root is not None:
        lines.append("")
        lines.append(
            f"tuning DB: {result.db_root} "
            f"(hits {result.db_hits}, misses {result.db_misses})"
        )
    lines.append("")
    lines.append("PASSED" if result.passed else "FAILED")
    return "\n".join(lines)


def write_report(result: AutotuneBenchResult, path: str | None = None) -> Path:
    """Write the rendered report (default: benchmarks/results/autotune_bench.txt)."""
    target = Path(path) if path else DEFAULT_RESULTS_PATH
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render(result) + "\n", encoding="utf-8")
    return target
