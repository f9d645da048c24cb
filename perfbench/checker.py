"""Checks on the simulator's outputs, computed apart from the library.

Nothing here imports ``shareable_bandits``: the optimum, the per-slot
regret and the ``raw.csv`` rules are worked out again from the arm means
and capacities alone, in exact rational arithmetic where a float could
hide a sign.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

RAW_HEADER = ["algorithm", "seed", "checkpoint", "cum_regret"]


def optimal_value(
    means: Sequence[float], capacities: Sequence[int], num_players: int
) -> Fraction:
    """f*: the sum of the top M units, arm k contributing mu_k m_k times."""
    units = sorted(
        (Fraction(mu) for mu, cap in zip(means, capacities) for _ in range(cap)),
        reverse=True,
    )
    if len(units) < num_players:
        raise ValueError("capacities cannot host every player")
    return sum(units[:num_players], Fraction(0))


def optimal_counts(
    means: Sequence[float], capacities: Sequence[int], num_players: int
) -> list[int]:
    """One optimal profile: the players per arm behind the top M units.

    Among tied units the lower arm index wins, so the profile is unique.
    """
    units = sorted(
        (-Fraction(mu), arm)
        for arm, (mu, cap) in enumerate(zip(means, capacities))
        for _ in range(cap)
    )
    counts = [0] * len(means)
    for _, arm in units[:num_players]:
        counts[arm] += 1
    return counts


def profile_value(
    counts: Iterable[tuple[int, int]], means: Sequence[float], capacities: Sequence[int]
) -> Fraction:
    """Exact expected reward of (arm, players) pairs: sum of min(a_k, m_k) mu_k."""
    return sum(
        (Fraction(means[arm]) * min(c, capacities[arm]) for arm, c in counts),
        Fraction(0),
    )


class RegretReplay:
    """Replays a run's per-slot regret from the engine's ``probe`` hook.

    Pass an instance as ``probe``: it is called after every slot with the
    players-per-arm counts. Each distinct profile's gap to the independent
    optimum is computed once, exactly; ``gaps`` holds one float per slot.
    """

    def __init__(
        self, means: Sequence[float], capacities: Sequence[int], num_players: int
    ) -> None:
        self.means = list(means)
        self.capacities = list(capacities)
        self.fstar = optimal_value(means, capacities, num_players)
        self.gaps: list[float] = []
        self.negative: list[int] = []  # slots whose exact gap was below zero
        self._gap_of: dict[tuple[tuple[int, int], ...], float] = {}

    def __call__(self, t: int, policies: object, counts: dict[int, int]) -> None:
        key = tuple(sorted(counts.items()))
        gap = self._gap_of.get(key)
        if gap is None:
            exact = self.fstar - profile_value(key, self.means, self.capacities)
            if exact < 0:
                self.negative.append(t)
            gap = self._gap_of[key] = float(exact)
        self.gaps.append(gap)

    def check(
        self,
        checkpoints: Sequence[int],
        checkpoint_regret: Sequence[float],
        optimal_mask: Sequence[bool],
    ) -> list[str]:
        """Problems found when the replay is held against the run's trace."""
        problems = []
        if self.negative:
            problems.append(
                f"{len(self.negative)} slots beat the optimum, first at slot {self.negative[0]}"
            )
        if len(optimal_mask) != len(self.gaps):
            problems.append(f"mask covers {len(optimal_mask)} slots, replay {len(self.gaps)}")
        cum = list(itertools.accumulate(self.gaps))
        tol = 1e-9 * float(self.fstar)
        for cp, reported in zip(checkpoints, checkpoint_regret):
            replayed = cum[cp - 1]
            if not math.isclose(reported, replayed, rel_tol=1e-9, abs_tol=tol):
                problems.append(
                    f"checkpoint {cp}: trace says {reported!r}, replay gives {replayed!r}"
                )
        if len(checkpoints) != len(checkpoint_regret):
            problems.append("trace has a regret for only some checkpoints")
        off = [t for t, (m, g) in enumerate(zip(optimal_mask, self.gaps)) if m and g != 0.0]
        if off:
            problems.append(
                f"{len(off)} slots marked optimal have a positive gap, first at slot {off[0]}"
            )
        return problems


def check_raw_csv(
    path,
    algorithms: Sequence[str],
    seeds: Sequence[int],
    checkpoints: Sequence[int],
    horizon: int,
    max_regret: dict[int, float],
) -> tuple[set[tuple[str, int]], list[str]]:
    """Check ``raw.csv`` rows; return the (algorithm, seed) runs at fault.

    One row per (algorithm, seed, checkpoint); per run the cumulative regret
    never decreases, stays within [0, T f*] (``max_regret`` by seed), and
    the last checkpoint is the horizon. A fault not tied to one run (a bad
    header, a row for an unknown run) is charged to every run.
    """
    every = {(alg, seed) for alg in algorithms for seed in seeds}
    bad: set[tuple[str, int]] = set()
    problems: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != RAW_HEADER:
        return every, [f"{path}: header is {rows[:1]}, expected {RAW_HEADER}"]
    runs: dict[tuple[str, int], list[tuple[int, float]]] = {}
    for row in rows[1:]:
        try:
            alg, seed, cp, reg = row[0], int(row[1]), int(row[2]), float(row[3])
        except (IndexError, ValueError):
            return every, [f"{path}: malformed row {row}"]
        if (alg, seed) not in every:
            return every, [f"{path}: row for unknown run {alg} seed {seed}"]
        runs.setdefault((alg, seed), []).append((cp, reg))
    for key in sorted(every):
        series = runs.get(key, [])
        where = f"{path}: {key[0]} seed {key[1]}"
        if [cp for cp, _ in series] != list(checkpoints):
            problems.append(f"{where}: checkpoints {[cp for cp, _ in series]}")
            bad.add(key)
            continue
        if checkpoints[-1] != horizon:
            problems.append(f"{where}: last checkpoint {checkpoints[-1]} is not T={horizon}")
            bad.add(key)
        regs = [reg for _, reg in series]
        if any(b < a for a, b in zip(regs, regs[1:])):
            problems.append(f"{where}: cumulative regret decreases")
            bad.add(key)
        if regs[0] < 0 or regs[-1] > max_regret[key[1]]:
            problems.append(f"{where}: regret leaves [0, {max_regret[key[1]]}]")
            bad.add(key)
    return bad, problems
