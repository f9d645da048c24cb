"""Ground-truth environment model: specs, assignment profiles, the optimum.

Arms are indexed 0..K-1 throughout. An assignment profile counts how many
players sit on each arm in one slot; the optimal profile fills arms in
descending-mean order up to each arm's resource capacity.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Sequence


class Feedback(str, Enum):
    """What a player learns about competition on the arm it pulled."""

    SDI = "sdi"  # observe the exact number of players on the arm
    SDA = "sda"  # observe only whether the arm was shared (count > 1)


class InfeasibleAssignmentError(ValueError):
    """Total arm capacity cannot absorb the requested number of players."""


def is_integral(value) -> bool:
    """True for Python and numpy integers; False for bools and floats."""
    if type(value) is int:  # the common case, without the slower ABC check
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class EnvSpec:
    """Immutable description of one simulated environment."""

    num_arms: int
    num_players: int
    means: tuple[float, ...]
    capacities: tuple[int, ...]
    horizon: int
    feedback: Feedback = Feedback.SDI
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_arms", "num_players", "horizon"):
            value = getattr(self, name)
            if not is_integral(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not all(is_integral(c) for c in self.capacities):
            raise ValueError(f"capacities must be integers, got {self.capacities}")
        if not all(
            isinstance(m, numbers.Real) and not isinstance(m, bool) for m in self.means
        ):
            raise ValueError(f"means must be real numbers, got {self.means}")
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        object.__setattr__(self, "capacities", tuple(int(c) for c in self.capacities))
        object.__setattr__(self, "feedback", Feedback(self.feedback))
        if self.num_arms < 1 or self.num_players < 1:
            raise ValueError("need at least one arm and one player")
        if self.num_players >= self.num_arms:
            raise ValueError(
                f"num_players ({self.num_players}) must be < num_arms ({self.num_arms})"
            )
        if len(self.means) != self.num_arms or len(self.capacities) != self.num_arms:
            raise ValueError("means and capacities must have one entry per arm")
        if any(not 0.0 <= m <= 1.0 for m in self.means):
            raise ValueError("per-load reward means must lie in [0, 1]")
        if sum(self.capacities) < self.num_players:
            raise InfeasibleAssignmentError(
                f"total capacity {sum(self.capacities)} cannot host "
                f"{self.num_players} players"
            )
        if any(not 1 <= c <= self.num_players for c in self.capacities):
            raise ValueError("capacities must lie in [1, num_players]")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class AssignmentProfile:
    """Per-arm player counts for one slot; counts sum to the player total."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError("assignment counts must be non-negative")


@dataclass(frozen=True)
class OptimalProfile:
    """Greedy capacity-filling optimum with its least-favored arm and value."""

    profile: AssignmentProfile
    least_favored: int
    value: float


def expected_reward(
    counts: Sequence[int], means: Sequence[float], capacities: Sequence[int]
) -> float:
    """Expected one-slot reward of per-arm counts: sum of min(a_k, m_k) * mu_k."""
    if len(counts) != len(means) or len(means) != len(capacities):
        raise ValueError("counts, means and capacities must have equal length")
    return sum(
        (a if a <= m else m) * mu for a, mu, m in zip(counts, means, capacities)
    )


def oracle(
    means: Sequence[float], capacities: Sequence[int], num_players: int
) -> OptimalProfile:
    """Best assignment of ``num_players`` onto arms with capped sharing.

    Fills arms in descending-mean order (ties broken by lower arm index) up
    to each capacity; the last arm touched receives the remainder and is
    reported as the least-favored arm, as an original arm index.
    """
    if len(means) != len(capacities):
        raise ValueError("means and capacities must have equal length")
    if num_players < 1:
        raise ValueError("num_players must be positive")
    if sum(capacities) < num_players:
        raise InfeasibleAssignmentError(
            f"total capacity {sum(capacities)} cannot host {num_players} players"
        )
    order = sorted(range(len(means)), key=lambda k: (-means[k], k))
    counts = [0] * len(means)
    remaining = num_players
    least = order[0]
    for k in order:
        take = min(capacities[k], remaining)
        if take == 0:
            break
        counts[k] = take
        remaining -= take
        least = k
    profile = AssignmentProfile(tuple(counts))
    value = expected_reward(counts, means, capacities)
    return OptimalProfile(profile=profile, least_favored=least, value=value)


def optimal_profile_for(spec: EnvSpec) -> OptimalProfile:
    return oracle(spec.means, spec.capacities, spec.num_players)
