"""Benchmark of shareable_bandits: preset sweeps timed end to end.

    python3 perfbench/run.py --workload synthetic-0.025 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
``--workload all`` runs every workload in turn. With ``--trace 0`` the
sweeps run untraced and the end-to-end metrics are printed; with
``--trace 1`` a traced sweep of the same inputs gives the per-layer ones.
Every metric is printed by name with its unit, then, as the last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Set-up is timed in fresh interpreters: several that only set up, and the
one that then measures. Exits non-zero, printing no result, when the
library is missing or a measurement cannot finish.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5  # set-up-only interpreters per run, besides the measuring one
TIME_LIMIT_S = 170.0  # one workload's run must end within 180 s


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(args: list[str], deadline: float) -> dict:
    """Start measure.py in a fresh interpreter and return its JSON result."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "measure.py"), *args, "--started", repr(started)]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measurement exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    out = OUT / name / ("traced" if trace else "timed")
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
              "--out", str(out)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(measure([*common, "--setup-only"], deadline)["setup_s"])
    result = measure([*common, "--trace", str(trace)], deadline)
    setups.append(result.pop("setup_s"))
    for note in result.pop("notes"):
        print(f"{name}: {note}")
    kind = "per_layer" if trace else "end_to_end"
    values = result["metrics"]
    if not trace:
        values["setup_s"] = statistics.median(setups)
    metrics = {}
    for metric, unit in metric_units(kind).items():
        if metric not in values:
            raise RuntimeError(f"{name}: no value for {metric}")
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"{name}: {metric} = {values[metric]:.6g} {unit}")
    print(f"{name}: runs attempted {result['attempted']}, failed {result['failed']}")
    return {**result, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the preset seeds each sweep covers (default 0)")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shareable_bandits" / "__init__.py").is_file():
        print(f"no library under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, args.trace)
            for name in names
        }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
