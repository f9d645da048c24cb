"""Regenerate the reference SHA-256 digests of each workload's raw.csv.

    python3 perfbench/digests.py

Runs every (algorithm, preset seed) of every workload once, through the
harness process pool, then writes the ``raw.csv`` that a sweep over each
``--seed``'s window of preset seeds would write, and records its digest in
``reference_digests.json``. A ``raw.csv`` depends only on the runs'
results, so the pool gives the same bytes as a serial sweep. Prints the
table that the README records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from measure import REFERENCE_DIGESTS, ROOT
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import shareable_bandits as lib

    digests: dict[str, dict[str, str]] = {}
    rows = ["| workload | --seed | preset seeds | raw.csv SHA-256 |", "| --- | --- | --- | --- |"]
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            preset = lib.load_scenario(workload.preset)
            everything = dataclasses.replace(preset, algorithms=list(workload.algorithms))
            _, results = lib.harness.run_experiment(everything, jobs=2)
            by_run = {(r.algorithm, r.seed): r for r in results}
            digests[name] = {}
            for seed in range(len(preset.seeds)):
                seeds = workload.preset_seeds(preset.seeds, seed)
                scenario = dataclasses.replace(everything, seeds=seeds)
                mine = [by_run[alg, s] for alg in scenario.algorithms for s in seeds]
                paths = lib.harness.emit_outputs(
                    lib.harness.aggregate(mine), mine, scenario, Path(tmp) / name
                )
                digest = hashlib.sha256(paths["raw"].read_bytes()).hexdigest()
                digests[name][",".join(map(str, seeds))] = digest
                rows.append(f"| {name} | {seed} | {seeds} | `{digest}` |")
    REFERENCE_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
