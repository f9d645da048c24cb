"""Experiment runner: seeded sweeps, aggregation, file outputs.

Runs every (algorithm, seed) pair of a scenario independently, samples
cumulative pseudo-regret at the scenario checkpoints, and aggregates mean
and standard deviation per checkpoint. Outputs are a raw CSV, a summary
text file, and the fully resolved scenario for byte-reproducible repeats.
"""

from __future__ import annotations

import csv
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from . import engine
from .scenarios import ALGORITHMS, Scenario

TAIL_WINDOW = 10_000  # slots inspected for the optimal-play share


@dataclass(frozen=True)
class RunResult:
    algorithm: str
    seed: int
    checkpoints: tuple[int, ...]
    checkpoint_regret: tuple[float, ...]
    final_regret: float
    tail_optimal_fraction: float


@dataclass(frozen=True)
class AggregateResult:
    """Per (algorithm, checkpoint): regret mean, population std and run count."""

    cells: dict[tuple[str, int], tuple[float, float, int]]


def policy_factory(algorithm: str, delta: float | None):
    cls, feedback = ALGORITHMS[algorithm]
    if delta is None or feedback is None:  # the heuristics take no delta
        return cls
    return functools.partial(cls, delta=delta)


def run_one(scenario: Scenario, algorithm: str, seed: int) -> RunResult:
    spec = scenario.env_spec(algorithm, seed)
    trace = engine.run(
        policy_factory(algorithm, scenario.delta),
        spec,
        checkpoints=scenario.checkpoints,
    )
    return RunResult(
        algorithm=algorithm,
        seed=seed,
        checkpoints=trace.checkpoints,
        checkpoint_regret=trace.checkpoint_regret,
        final_regret=trace.final_regret,
        tail_optimal_fraction=trace.optimal_fraction(TAIL_WINDOW),
    )


def _run_task(args: tuple[Scenario, str, int]) -> RunResult:
    return run_one(*args)


def run_experiment(
    scenario: Scenario, *, jobs: int = 1, log=None
) -> tuple[AggregateResult, list[RunResult]]:
    scenario.validate()
    tasks = [(scenario, alg, seed) for alg in scenario.algorithms for seed in scenario.seeds]
    results: list[RunResult] = []
    jobs = min(jobs, len(tasks))  # under fork, the first submit starts every worker
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        for res in (pool.map if pool else map)(_run_task, tasks):
            results.append(res)
            if log:
                log(f"done {res.algorithm} seed={res.seed} regret={res.final_regret:.1f}")
    return aggregate(results), results


def aggregate(results: list[RunResult]) -> AggregateResult:
    groups: dict[tuple[str, int], list[float]] = {}
    for res in results:
        for cp, reg in zip(res.checkpoints, res.checkpoint_regret):
            groups.setdefault((res.algorithm, cp), []).append(reg)
    cells = {}
    for key, vals in groups.items():
        n = len(vals)
        mean = sum(vals) / n
        var = sum((v - mean) ** 2 for v in vals) / n
        cells[key] = (mean, math.sqrt(var), n)
    return AggregateResult(cells)


def emit_outputs(
    aggregate_result: AggregateResult,
    results: list[RunResult],
    scenario: Scenario,
    out_dir: str | Path,
) -> dict[str, Path]:
    """Write raw CSV, the summary, and the resolved scenario under out_dir."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    raw_path = out / "raw.csv"
    with raw_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["algorithm", "seed", "checkpoint", "cum_regret"])
        for res in results:
            for cp, reg in zip(res.checkpoints, res.checkpoint_regret):
                writer.writerow([res.algorithm, res.seed, cp, repr(reg)])

    scenario_path = out / "scenario.resolved.json"
    scenario_path.write_text(scenario.to_json() + "\n", encoding="utf-8")

    summary_path = out / "summary.txt"
    lines = [f"scenario: {scenario.name}"]
    lines.append(f"arms: {scenario.num_arms}  players: {scenario.num_players}")
    lines.append(f"horizon: {scenario.horizon}  feedback: {scenario.feedback}")
    lines.append(f"seeds: {scenario.seeds}")
    if scenario.permute_means:
        lines.append("per-seed mean permutations:")
        for seed in scenario.seeds:
            lines.append(f"  seed {seed}: {scenario.means_for_seed(seed)}")
    for alg in scenario.algorithms:
        lines.append(f"algorithm: {alg}")
        lines.append("  checkpoint  mean_regret  std_regret  runs")
        for cp in scenario.checkpoints:
            cell = aggregate_result.cells.get((alg, cp))
            if cell is None:
                lines.append(f"  {cp:>10}  {'-':>11}  {'-':>10}  {0:>4}")
                continue
            mean, std, n = cell
            lines.append(f"  {cp:>10}  {mean:>11.3f}  {std:>10.3f}  {n:>4}")
        tail = [r.tail_optimal_fraction for r in results if r.algorithm == alg]
        if tail:
            lines.append(
                f"  optimal-play share of final {TAIL_WINDOW} slots: "
                f"mean {sum(tail) / len(tail):.4f}"
            )
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    return {"raw": raw_path, "summary": summary_path, "scenario": scenario_path}
