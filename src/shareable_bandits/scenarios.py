"""Scenario definitions: built-in presets and JSON config files.

A scenario is an environment template plus the experiment plan (algorithms,
seeds, checkpoints). Means may be given explicitly or as a decreasing
array that is randomly permuted per seed with the seed-derived RNG, so
every run is reproducible from (scenario, seed) alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .baselines import HighestRewardPolicy, IdlestArmPolicy
from .dpe import DpeSdiPolicy
from .model import EnvSpec, Feedback, is_integral
from .sic import SicSdaPolicy

# Each algorithm's policy class and the feedback it forces on the environment.
# The learning policies force one and take ``delta``; the heuristics (None)
# run under the scenario's feedback and take no ``delta``.
ALGORITHMS: dict[str, tuple[type, Feedback | None]] = {
    "dpe-sdi": (DpeSdiPolicy, Feedback.SDI),
    "sic-sda": (SicSdaPolicy, Feedback.SDA),
    "sic-sdi": (SicSdaPolicy, Feedback.SDI),  # same state machine, SDI counts
    "highest-reward": (HighestRewardPolicy, None),
    "idlest-arm": (IdlestArmPolicy, None),
}


class ScenarioError(ValueError):
    """Scenario configuration is inconsistent or infeasible."""


@dataclass
class Scenario:
    name: str
    num_arms: int
    num_players: int
    capacities: list[int]
    means: list[float]
    horizon: int
    feedback: str = "sdi"
    permute_means: bool = False
    algorithms: list[str] = field(default_factory=lambda: ["dpe-sdi"])
    seeds: list[int] = field(default_factory=lambda: list(range(20)))
    checkpoints: list[int] = field(default_factory=list)
    delta: float | None = None

    def __post_init__(self) -> None:
        self.validate()
        self.seeds = [int(s) for s in self.seeds]  # numpy seeds print as ints
        if not self.checkpoints:
            self.checkpoints = default_checkpoints(self.horizon)

    def validate(self) -> None:
        for name in ("capacities", "means", "algorithms", "seeds", "checkpoints"):
            value = getattr(self, name)
            if not isinstance(value, list):  # a number, string or object from a file
                raise ScenarioError(f"{name} must be a list, got {value!r}")
        try:
            EnvSpec(
                num_arms=self.num_arms,
                num_players=self.num_players,
                means=self.means,
                capacities=self.capacities,
                horizon=self.horizon,
                feedback=self.feedback,
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(str(exc)) from exc
        if not isinstance(self.permute_means, bool):
            raise ScenarioError(
                f"permute_means must be true or false, got {self.permute_means!r}"
            )
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ScenarioError(f"delta must lie in (0, 1), got {self.delta}")
        if any(not is_integral(s) or s < 0 for s in self.seeds):
            raise ScenarioError(f"seeds must be non-negative integers, got {self.seeds}")
        for name in ("seeds", "algorithms"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ScenarioError(
                    f"{name} must be distinct and non-empty, got {values}"
                )
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ScenarioError(f"unknown algorithms: {sorted(unknown)}")
        cps = list(self.checkpoints)
        if (
            any(not is_integral(c) for c in cps)
            or cps != sorted(set(cps))
            or any(not 1 <= c <= self.horizon for c in cps)
        ):
            raise ScenarioError(
                "checkpoints must be strictly increasing integers <= horizon"
            )

    def means_for_seed(self, seed: int) -> list[float]:
        """Per-seed arm means; the permutation is a pure function of the seed."""
        if not self.permute_means:
            return list(self.means)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 0xA5]))
        )
        order = rng.permutation(self.num_arms)
        return [self.means[i] for i in order]

    def env_spec(self, algorithm: str, seed: int) -> EnvSpec:
        feedback = ALGORITHMS[algorithm][1] or Feedback(self.feedback)
        return EnvSpec(
            num_arms=self.num_arms,
            num_players=self.num_players,
            means=tuple(self.means_for_seed(seed)),
            capacities=tuple(self.capacities),
            horizon=self.horizon,
            feedback=feedback,
            seed=seed,
        )

    def to_json(self) -> str:
        # Numbers json cannot write itself: numpy scalars, fractions.
        return json.dumps(
            asdict(self), indent=2, default=lambda v: int(v) if is_integral(v) else float(v)
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ScenarioError("scenario file must hold a JSON object")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ScenarioError(f"bad scenario field: {exc}") from exc


def default_checkpoints(horizon: int, count: int = 20) -> list[int]:
    """Roughly log-spaced regret sampling slots, always including the horizon."""
    pts = np.logspace(0, math.log10(horizon), count)
    out = sorted({int(round(p)) for p in pts} | {horizon})
    return [p for p in out if 1 <= p <= horizon]


def decreasing_means(start: float, gap: float, count: int) -> list[float]:
    return [round(start - i * gap, 10) for i in range(count)]


# Capacities of the 9-arm synthetic environment.
_SYNTHETIC_CAPACITIES = [3, 2, 4, 2, 1, 5, 2, 1, 3]

# Edge-computing nodes: CPU speed in GHz (scaled by 1/3 into [0, 1]) and core
# counts as capacities.
_EDGE_GHZ = [1.5, 2.1, 1.2, 2.5, 2.0, 1.3, 2.6]
_EDGE_CORES = [3, 2, 4, 2, 1, 2, 3]

# Cellular base stations: two high-throughput stations followed by eighteen
# ordinary ones. Means are reciprocal round-trip times (units of 100 ms);
# capacities are throughputs (units of 100 Mbps) rounded to integers.
_NET_RTT = [1.2, 1.1, 4.2, 4.0, 4.5, 3.5, 5.0, 4.2, 5.5, 3.9,
            4.8, 5.5, 3.7, 4.7, 3.2, 5.1, 4.4, 5.3, 4.9, 4.1]
_NET_THR = [9.2, 8.1, 1.2, 1.2, 1.4, 1.1, 1.3, 1.2, 1.1, 1.4,
            1.0, 1.1, 1.2, 1.0, 1.3, 1.2, 1.0, 1.1, 1.3, 1.2]


def preset_scenarios() -> dict[str, Scenario]:
    """Built-in experiment presets, keyed by name."""
    presets: dict[str, Scenario] = {}
    for gap in (0.001, 0.012, 0.025, 0.037):
        name = f"synthetic-{gap}"
        presets[name] = Scenario(
            name=name,
            num_arms=9,
            num_players=6,
            capacities=list(_SYNTHETIC_CAPACITIES),
            means=decreasing_means(0.9, gap, 9),
            horizon=100_000,
            feedback="sdi",
            permute_means=True,
            algorithms=["dpe-sdi", "sic-sda", "sic-sdi"],
            seeds=list(range(20)),
        )
    presets["edge-computing"] = Scenario(
        name="edge-computing",
        num_arms=7,
        num_players=6,
        capacities=list(_EDGE_CORES),
        means=[round(g / 3.0, 10) for g in _EDGE_GHZ],
        horizon=100_000,
        feedback="sdi",
        algorithms=["dpe-sdi", "highest-reward", "idlest-arm"],
        seeds=list(range(20)),
    )
    num_players = 18
    presets["cellular-5g4g"] = Scenario(
        name="cellular-5g4g",
        num_arms=20,
        num_players=num_players,
        capacities=[min(round(thr), num_players) for thr in _NET_THR],
        means=[round(1.0 / rtt, 10) for rtt in _NET_RTT],
        horizon=200_000,
        feedback="sda",
        algorithms=["sic-sda", "highest-reward", "idlest-arm"],
        seeds=list(range(10)),
    )
    return presets


def load_scenario(name_or_path: str) -> Scenario:
    presets = preset_scenarios()
    if name_or_path in presets:
        return presets[name_or_path]
    path = Path(name_or_path)
    if path.exists():
        return Scenario.from_file(path)
    raise ScenarioError(
        f"unknown scenario {name_or_path!r}; presets: {sorted(presets)}"
    )
