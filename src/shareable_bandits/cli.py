"""Command-line experiment runner."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import emit_outputs, run_experiment
from .scenarios import ALGORITHMS, Scenario, ScenarioError, load_scenario, preset_scenarios


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _parse_jobs(text: str) -> int:
    jobs = _parse_int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1, got {jobs}")
    return jobs


def _parse_ints(text: str) -> list[int]:
    values = [_parse_int(s) for s in text.split(",") if s.strip()]
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}"
        )
    return values


def _parse_seeds(text: str) -> list[int]:
    return _parse_ints(text) if "," in text else list(range(_parse_int(text)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shareable-bandits",
        description="Multi-player shareable-arm bandit experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write CSV outputs")
    run_p.add_argument("--scenario", required=True, help="preset name or JSON file")
    run_p.add_argument(
        "--algo",
        default=None,
        help=f"algorithm(s), comma separated or 'all'; choices: {', '.join(ALGORITHMS)}",
    )
    run_p.add_argument("--horizon", type=int, default=None)
    run_p.add_argument("--seeds", type=_parse_seeds, default=None,
                       help="count N or comma list")
    run_p.add_argument("--delta", type=float, default=None,
                       help="confidence level for capacity brackets (default 2/T)")
    run_p.add_argument("--feedback", choices=["sdi", "sda"], default=None)
    run_p.add_argument("--checkpoints", type=_parse_ints, default=None,
                       help="comma list of slots")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--jobs", type=_parse_jobs, default=1)

    sub.add_parser("list-scenarios", help="list built-in presets")

    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("--scenario", required=True)
    return parser


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    changes = {}
    if args.horizon is not None:
        changes["horizon"] = args.horizon
        changes["checkpoints"] = []  # re-derived for the new horizon
    if args.feedback:
        changes["feedback"] = args.feedback
    if args.delta is not None:
        changes["delta"] = args.delta
    if args.algo:
        changes["algorithms"] = (
            list(ALGORITHMS) if args.algo == "all" else args.algo.split(",")
        )
    if args.seeds is not None:
        changes["seeds"] = args.seeds
    if args.checkpoints is not None:
        changes["checkpoints"] = args.checkpoints
    return dataclasses.replace(scenario, **changes)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-scenarios":
        for name, sc in sorted(preset_scenarios().items()):
            print(
                f"{name}: K={sc.num_arms} M={sc.num_players} T={sc.horizon} "
                f"feedback={sc.feedback} algorithms={','.join(sc.algorithms)}"
            )
        return 0

    try:
        scenario = load_scenario(args.scenario)  # loading validates
        if args.command == "run":
            scenario = _apply_overrides(scenario, args)
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print(f"scenario {scenario.name!r} is valid")
        return 0

    agg, results = run_experiment(scenario, jobs=args.jobs, log=print)
    paths = emit_outputs(agg, results, scenario, args.out)
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
