"""Synchronous lockstep simulator.

Each slot the engine polls every player for an arm, draws one Bernoulli
per-load reward per arm (shared by all players on that arm), and hands each
player only its own observation. Players never see anything else: the
observation carries the arm's total reward plus either the sharing count
(SDI) or a 1-bit shared flag (SDA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .model import (
    EnvSpec,
    Feedback,
    OptimalProfile,
    optimal_profile_for,
)

_CHUNK = 8192  # slots of pre-drawn arm randomness held at a time


class InvalidActionError(RuntimeError):
    """A policy emitted an arm index outside [0, K)."""


@dataclass(slots=True)
class Observation:
    """One player's view of one slot.

    ``reward`` is the arm's total reward (identical for every player on the
    arm). ``count`` is the number of players on the arm under SDI feedback
    and None under SDA; ``shared`` is the 1-bit flag count > 1 and is set in
    both modes.
    """

    arm: int
    reward: float
    count: int | None
    shared: bool


@dataclass(frozen=True)
class PublicEnvInfo:
    """What a player is allowed to know at construction time.

    Deliberately excludes the reward means, the capacities and the player
    count; policies must learn those through feedback.
    """

    num_arms: int
    horizon: int
    feedback: Feedback
    rng: np.random.Generator


class Policy(Protocol):
    def next_action(self, t: int) -> int: ...

    def observe(self, obs: Observation) -> None: ...


PolicyFactory = Callable[[int, PublicEnvInfo], Policy]
Probe = Callable[[int, Sequence[Policy], dict[int, int]], None]


@dataclass
class RunTrace:
    """Result of one simulated run."""

    horizon: int
    checkpoints: tuple[int, ...]
    checkpoint_regret: tuple[float, ...]
    final_regret: float
    optimal_mask: np.ndarray  # bool per slot: profile equalled the optimum
    phase_events: tuple[tuple[int, str], ...]  # player 0's phase transitions

    def optimal_fraction(self, last_slots: int) -> float:
        """Fraction of the final ``last_slots`` slots played exactly optimally."""
        window = self.optimal_mask[max(len(self.optimal_mask) - last_slots, 0):]
        return float(window.mean()) if len(window) else 0.0


def _slot(
    actions: Sequence[int],
    row: bytes,
    caps: Sequence[int],
    sdi: bool,
) -> tuple[dict[int, int], list[Observation]]:
    """Apply the reward rule to one slot: min(a_k, m_k) * X_k per arm.

    ``row`` holds one byte per arm, X_k: 1 when the arm's uniform fell below
    its mean. Returns the players per arm and each player's own
    observation, in action order.
    """
    num_arms = len(caps)
    counts: dict[int, int] = {}
    for a in actions:
        if a in counts:
            counts[a] += 1
        elif 0 <= a < num_arms:
            counts[a] = 1
        else:
            raise InvalidActionError(f"arm index {a} out of range [0, {num_arms})")
    out = []
    for a in actions:
        c = counts[a]
        x = 1.0 if row[a] else 0.0
        reward = (c if c <= caps[a] else caps[a]) * x
        out.append(Observation(a, reward, c if sdi else None, c > 1))
    return counts, out


def step(
    actions: Sequence[int], spec: EnvSpec, rng: np.random.Generator
) -> list[Observation]:
    """Advance one slot: draw per-arm rewards and build each player's view.

    Consumes exactly one uniform per arm from ``rng`` regardless of the
    actions, so arm draws are independent of player behaviour.
    """
    if len(actions) != spec.num_players:
        raise ValueError(
            f"expected {spec.num_players} actions, got {len(actions)}"
        )
    row = (rng.random(spec.num_arms) < np.asarray(spec.means)).tobytes()
    sdi = spec.feedback is Feedback.SDI
    return _slot(actions, row, spec.capacities, sdi)[1]


def run(
    policy_factory: PolicyFactory,
    spec: EnvSpec,
    *,
    checkpoints: Sequence[int] = (),
    probe: Probe | None = None,
) -> RunTrace:
    """Simulate ``spec.horizon`` slots with M freshly constructed players.

    Deterministic for a fixed spec: the environment and every player draw
    from generators derived from ``spec.seed``. Cumulative pseudo-regret
    (expected-value gap to the optimum) is sampled at ``checkpoints``.
    """
    opt: OptimalProfile = optimal_profile_for(spec)
    fstar = opt.value
    opt_items = {k: c for k, c in enumerate(opt.profile.counts) if c > 0}

    K, M, T = spec.num_arms, spec.num_players, spec.horizon
    means, caps = spec.means, spec.capacities
    sdi = spec.feedback is Feedback.SDI

    seed_children = np.random.SeedSequence(spec.seed).spawn(M + 1)
    env_rng = np.random.Generator(np.random.PCG64(seed_children[0]))
    policies = [
        policy_factory(
            i,
            PublicEnvInfo(
                num_arms=K,
                horizon=T,
                feedback=spec.feedback,
                rng=np.random.Generator(np.random.PCG64(seed_children[i + 1])),
            ),
        )
        for i in range(M)
    ]

    cps = sorted(set(int(c) for c in checkpoints))
    if any(c < 1 or c > T for c in cps):
        raise ValueError("checkpoints must lie in [1, horizon]")
    cp_set = set(cps)
    cp_regret: list[float] = []

    optimal_mask = np.zeros(T, dtype=bool)
    phase_events: list[tuple[int, str]] = []
    last_phase: str | None = None

    regret = 0.0
    means_array = np.asarray(means)
    draws = b""  # X_k bytes of the chunk's slots, K per slot
    offset = 0
    for t in range(T):
        if offset == len(draws):
            offset = 0
            draws = (env_rng.random((min(_CHUNK, T - t), K)) < means_array).tobytes()
        row = draws[offset : offset + K]
        offset += K

        arms = [p.next_action(t) for p in policies]
        try:
            counts, observations = _slot(arms, row, caps, sdi)
        except InvalidActionError as exc:
            raise InvalidActionError(f"{exc} at slot {t}") from None

        f_t = 0.0
        for a, c in counts.items():
            f_t += (c if c <= caps[a] else caps[a]) * means[a]
        regret += fstar - f_t
        if counts == opt_items:
            optimal_mask[t] = True

        for p, obs in zip(policies, observations):
            p.observe(obs)

        phase = getattr(policies[0], "phase", None)
        if phase is not None and phase != last_phase:
            phase_events.append((t, str(phase)))
            last_phase = phase

        if t + 1 in cp_set:
            cp_regret.append(regret)

        if probe is not None:
            probe(t, policies, counts)

    return RunTrace(
        horizon=T,
        checkpoints=tuple(cps),
        checkpoint_regret=tuple(cp_regret),
        final_regret=regret,
        optimal_mask=optimal_mask,
        phase_events=tuple(phase_events),
    )
