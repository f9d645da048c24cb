"""The benchmark's workloads: which preset sweep each one runs, and on what.

Each workload is a preset of ``shareable_bandits.scenarios`` with its own
horizon, capacities, means and algorithms. The benchmark's ``--seed`` picks
which of the preset's seeds a sweep covers, so the same ``--seed`` always
gives the same inputs and other seeds give other inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# The paper's policies. learner_regret averages their runs and leaves out the
# heuristics, whose regret says nothing about the algorithms under test.
LEARNERS = ("dpe-sdi", "sic-sda", "sic-sdi")


@dataclass(frozen=True)
class Workload:
    preset: str
    algorithms: tuple[str, ...]
    seeds_per_sweep: int  # preset seeds in one sweep; sets a sweep's length

    def preset_seeds(self, preset_seeds: list[int], seed: int) -> list[int]:
        """The preset seeds a sweep covers: a window starting at ``seed``."""
        n = len(preset_seeds)
        return [preset_seeds[(seed + i) % n] for i in range(min(self.seeds_per_sweep, n))]


# Four seeds keep learner_regret's spread between windows near 5%; one
# cellular seed already takes about 20 s. edge-computing through the process
# pool was left out: its only learner, dpe-sdi, varies by a third from seed
# to seed, and a six-seed pool sweep's time spread by a quarter over five runs.
WORKLOADS = {
    # The paper's synthetic figure: DPE leader bookkeeping, SIC in exploit.
    "synthetic-0.025": Workload(
        preset="synthetic-0.025",
        algorithms=("dpe-sdi", "sic-sda", "sic-sdi"),
        seeds_per_sweep=4,
    ),
    # The largest preset: engine at 18 players, SIC communication,
    # idlest-arm's per-slot scan; no DPE code runs.
    "cellular-5g4g": Workload(
        preset="cellular-5g4g",
        algorithms=("sic-sda", "highest-reward", "idlest-arm"),
        seeds_per_sweep=1,
    ),
}


def pool_jobs() -> int:
    """Workers for the pool sweep of a traced run: min(2, nproc)."""
    return min(2, os.cpu_count() or 1)

