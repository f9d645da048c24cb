"""One measurement of one workload, in an interpreter of its own.

``run.py`` starts this script; it is not meant to be run by hand. Its last
line of output is a JSON object with the metrics it measured. Running it
in a fresh process lets it time set-up from interpreter start and read the
peak memory of exactly the sweeps it runs.

Untraced mode (``--trace 0``) repeats the workload's sweep, the way
``shareable-bandits run`` does it (load the preset, ``run_experiment``,
``emit_outputs``), for as many whole sweeps as fit in ``--seconds``.
Traced mode (``--trace 1``) runs the fixed-arm floor, then the same sweep
three ways: untraced, through the harness process pool, and traced. It
reports per-layer figures, and checks that all three write the same
``raw.csv``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from checker import check_raw_csv, optimal_counts, optimal_value
from tracing import Tracer
from workloads import LEARNERS, WORKLOADS, pool_jobs

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def set_up(workload, seed: int):
    """Import the library from this checkout, load the preset and validate it."""
    sys.path.insert(0, str(ROOT / "src"))
    import shareable_bandits as lib

    where = Path(lib.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"shareable_bandits came from {where}, not from this checkout")
    scenario = lib.load_scenario(workload.preset)
    scenario = dataclasses.replace(
        scenario,
        algorithms=list(workload.algorithms),
        seeds=workload.preset_seeds(scenario.seeds, seed),
    )
    scenario.validate()
    return lib, scenario


def sweep(lib, scenario, out_dir: Path, jobs: int) -> tuple[float, list, bytes]:
    """One sweep as the command line runs it; returns (seconds, results, raw.csv)."""
    start = time.perf_counter()
    agg, results = lib.harness.run_experiment(scenario, jobs=jobs)
    paths = lib.harness.emit_outputs(agg, results, scenario, out_dir)
    took = time.perf_counter() - start
    return took, results, paths["raw"].read_bytes()


class Outcome:
    """Runs attempted and failed, problems found, and notes to print."""

    def __init__(self, lib, scenario) -> None:
        self.lib = lib
        self.scenario = scenario
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []
        self.max_regret = {
            seed: scenario.horizon * float(optimal_value(
                scenario.means_for_seed(seed), scenario.capacities, scenario.num_players
            ))
            for seed in scenario.seeds
        }

    def runs_in_sweep(self) -> int:
        return len(self.scenario.algorithms) * len(self.scenario.seeds)

    def problem(self, text: str) -> None:
        self.correct = False
        print(f"check failed: {text}", file=sys.stderr)

    def checked_sweep(self, out_dir: Path, jobs: int):
        """A sweep whose raw.csv is checked; None if it raised."""
        self.attempted += self.runs_in_sweep()
        try:
            took, results, raw = sweep(self.lib, self.scenario, out_dir, jobs)
        except Exception:  # a run that raises fails the whole sweep
            traceback.print_exc()
            self.failed += self.runs_in_sweep()
            return None
        sc = self.scenario
        bad, problems = check_raw_csv(
            out_dir / "raw.csv", sc.algorithms, sc.seeds, sc.checkpoints,
            sc.horizon, self.max_regret,
        )
        for text in problems:
            print(f"check failed: {text}", file=sys.stderr)
        self.failed += len(bad)
        self.check_feedback_twins(
            {(r.algorithm, r.seed): dataclasses.astuple(r)[2:] for r in results}
        )
        return took, results, raw

    def check_feedback_twins(self, by_run: dict) -> None:
        """sic-sda and sic-sdi run one state machine, so their traces agree."""
        for seed in self.scenario.seeds:
            sda, sdi = by_run.get(("sic-sda", seed)), by_run.get(("sic-sdi", seed))
            if sda is not None and sdi is not None and not _equal(sda, sdi):
                self.problem(f"sic-sda and sic-sdi traces differ on seed {seed}")

    def check_digest(self, workload_name: str, raw: bytes) -> None:
        """Print raw.csv's SHA-256; a new digest is a behaviour change, not a failure."""
        digest = hashlib.sha256(raw).hexdigest()
        self.notes.append(f"raw.csv sha256 {digest} (preset seeds {self.scenario.seeds})")
        key = ",".join(map(str, self.scenario.seeds))
        reference = json.loads(REFERENCE_DIGESTS.read_text()).get(workload_name, {}).get(key)
        if reference is None:
            self.notes.append("no reference digest for these seeds")
        elif reference != digest:
            self.notes.append(f"behaviour change: reference digest is {reference}")


def _equal(a, b) -> bool:
    if hasattr(a, "shape"):
        return a.shape == b.shape and bool((a == b).all())
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return a == b


def timed(name: str, lib, scenario, seconds: float, out_dir: Path) -> dict:
    """Whole sweeps with tracing off, as many as fit in ``seconds``."""
    outcome = Outcome(lib, scenario)
    times, raws = [], []
    learner_regret = None
    begin = time.perf_counter()
    while True:
        done = outcome.checked_sweep(out_dir, 1)
        if done is not None:
            took, results, raw = done
            times.append(took)
            raws.append(raw)
            learners = [r.final_regret for r in results if r.algorithm in LEARNERS]
            learner_regret = sum(learners) / len(learners) if learners else 0.0
        last = time.perf_counter() - begin
        # Stop before a sweep that would overrun; the first always runs.
        if last + (times[-1] if times else 0.0) > seconds or not times:
            break
    if any(raw != raws[0] for raw in raws):
        outcome.problem("raw.csv differs between sweeps of the same inputs")
    if raws:
        outcome.check_digest(name, raws[0])
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    outcome.notes.append(f"sweeps timed: {', '.join(f'{t:.2f}' for t in times)} s")
    metrics = {"peak_rss_mib": kib / 1024.0}
    if times:
        metrics["sweep_s"] = statistics.median(times)
        metrics["learner_regret"] = learner_regret
    return _report(outcome, metrics)


def floor_run(lib, scenario, outcome: Outcome) -> float:
    """Fixed-arm players on the optimal profile: ns per player-slot, zero regret."""
    seed = scenario.seeds[0]
    spec = scenario.env_spec(scenario.algorithms[0], seed)
    counts = optimal_counts(spec.means, spec.capacities, spec.num_players)
    outcome.attempted += 1
    start = time.perf_counter_ns()
    trace = lib.engine.run(
        lib.baselines.fixed_profile_factory(counts), spec, checkpoints=scenario.checkpoints
    )
    took = time.perf_counter_ns() - start
    if trace.final_regret != 0.0 or not trace.optimal_mask.all():
        outcome.failed += 1
        outcome.problem(
            f"fixed optimal profile {counts}: regret {trace.final_regret}, "
            f"{int((~trace.optimal_mask).sum())} slots not optimal"
        )
    return took / (spec.horizon * spec.num_players)


def layer_metrics(tracer: Tracer, sweep_s: float) -> dict:
    """Per-layer figures from one traced sweep."""
    runs = tracer.runs
    m: dict[str, float] = {}

    def per_player_slot(algs) -> float:
        mine = [r for r in runs if r.algorithm in algs]
        slots = sum(r.player_slots for r in mine)
        return sum(r.policy_ns for r in mine) / slots if slots else 0.0

    slots = sum(r.player_slots for r in runs)
    engine_self = sum(r.run_ns - r.policy_ns - r.probe_ns for r in runs)
    m["engine.self_ns_per_player_slot"] = engine_self / slots if slots else 0.0
    m["engine.policy_calls"] = sum(r.policy_calls for r in runs)
    for layer, algs in (("dpe", ("dpe-sdi",)), ("sic", ("sic-sda", "sic-sdi"))):
        mine = [r for r in runs if r.algorithm in algs]
        m[f"{layer}.ns_per_player_slot"] = per_player_slot(algs)
        m[f"{layer}.comm_slots"] = sum(r.phase_slots["comm"] for r in mine)
        if layer == "sic":
            m["sic.explore_slots"] = sum(r.phase_slots["explore"] for r in mine)
            m["sic.exploit_slots"] = sum(r.phase_slots["exploit"] for r in mine)
            m["sic.explore_regret"] = sum(r.phase_regret["explore"] for r in mine)
        m[f"{layer}.comm_regret"] = sum(r.phase_regret["comm"] for r in mine)
        m[f"{layer}.regret"] = sum(r.regret for r in mine)
    for name in ("stats.update_capacity_bounds", "stats.klucb_at_least",
                 "stats.means_separated", "model.oracle"):
        calls = tracer.calls[name]
        m[f"{name}.calls"] = calls
        m[f"{name}.us_per_call"] = tracer.busy_ns[name] / calls / 1e3 if calls else 0.0
    m["stats.update_capacity_bounds.changed"] = tracer.changed["stats.update_capacity_bounds"]
    m["model.oracle.changed"] = tracer.changed["model.oracle"]
    m["stats.klucb_index.calls"] = tracer.calls["stats.klucb_index"]
    for alg in ("highest-reward", "idlest-arm"):
        m[f"baselines.{alg}.ns_per_player_slot"] = per_player_slot((alg,))
    run_s = tracer.busy_ns["harness.run_one"] / 1e9
    m["harness.run_s"] = run_s
    m["harness.overhead_s"] = sweep_s - run_s
    return m


def traced(workload, lib, scenario, out_dir: Path) -> dict:
    """The fixed-arm floor, then the sweep untraced, pooled and traced.

    One traced sweep is enough: its counts repeat exactly from run to run,
    and its times are per-layer shares, not end-to-end figures.
    """
    outcome = Outcome(lib, scenario)
    load = []
    for _ in range(5):
        start = time.perf_counter()
        loaded = lib.load_scenario(workload.preset)
        dataclasses.replace(loaded, seeds=scenario.seeds).validate()
        load.append(time.perf_counter() - start)
    floor_ns = floor_run(lib, scenario, outcome)

    serial = outcome.checked_sweep(out_dir / "untraced", 1)
    jobs = pool_jobs()
    pool = outcome.checked_sweep(out_dir / "pool", jobs) if jobs > 1 else serial
    if serial and pool and pool[2] != serial[2]:
        outcome.problem("raw.csv of the pool sweep differs from the serial sweep")

    tracer = Tracer(lib)
    with tracer:
        done = outcome.checked_sweep(out_dir / "traced", 1)
    if done is None or serial is None or pool is None:
        return _report(outcome, {})
    took, results, raw = done
    tracer.write(out_dir)
    if raw != serial[2]:
        outcome.problem("raw.csv of the traced sweep differs from the untraced one")
    for record in tracer.runs:
        for text in record.problems:
            outcome.problem(f"{record.algorithm} regret replay: {text}")
    outcome.check_feedback_twins({
        (res.algorithm, res.seed): (
            r.trace.checkpoints, r.trace.checkpoint_regret, r.trace.final_regret,
            r.trace.optimal_mask, r.trace.phase_events,
        )
        for r, res in zip(tracer.runs, results)
    })
    metrics = layer_metrics(tracer, took)
    metrics["engine.floor_ns_per_player_slot"] = floor_ns
    metrics["scenarios.load_s"] = statistics.median(load)
    metrics["harness.parallel_efficiency"] = serial[0] / (jobs * pool[0])
    metrics["bench.tracing_overhead_s"] = took - serial[0]
    return _report(outcome, metrics)


def _report(outcome: Outcome, metrics: dict) -> dict:
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "notes": outcome.notes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    lib, scenario = set_up(workload, args.seed)
    setup_s = monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        result = traced(workload, lib, scenario, args.out)
    else:
        result = timed(args.workload, lib, scenario, args.seconds, args.out)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
