"""Synchronous lockstep simulator.

``run`` is the one driver. Each slot it polls every player for an arm,
draws one Bernoulli per-load reward per arm (shared by all players on that
arm), and hands each player only its own observation. Players never see
anything else: the observation carries the arm's total reward plus either
the sharing count (SDI) or a 1-bit shared flag (SDA).

Three things keep ``run`` cheap without changing a single output value:

- **Slot plans.** Everything about a slot except the arm draws depends only
  on the action profile: each player's arm, capped factor min(a_k, m_k),
  count and shared flag, the slot's regret gap and whether it is optimal.
  ``run`` builds this plan once per distinct action tuple and keeps it in a
  per-run dict; a slot is then one lookup plus the draws.
- **Blocks.** A policy may state that for the next n slots it cycles
  through a fixed tuple of arms whatever it observes (``schedule``), or
  whatever it observes provided its arm's shared flag is a stated value in
  every slot, and then take those n slots' outcome in one call
  (``observe_block``): per position of the block's period, its interned
  hit observation, the number of those slots its arm drew 1 and the number
  of slots. A player committed for good states one arm to the horizon.
  When every player states a cycle, the engine takes the shortest block at
  once, with one plan per position of the period P, the lcm of the cycle
  lengths. The plans fix every count before anything is drawn, so it
  checks each stated flag against them and cuts the block before the
  first position that breaks one, stepping the slot when that is position
  0. It counts each position's hits on each occupied arm in the drawn
  chunks, P rows apart, and draws the chunks at the slots stepping would.
  When P is at least the block's length, as in SIC's communication stages,
  no position repeats and every slot is its own position: the engine then
  takes at most ``_SPAN`` slots, reads each slot's draws from its row, and
  builds each player's outcomes at C level by indexing its interned
  one-slot outcomes with its arm's draw, with no Python loop over the
  player-slots. Either way it adds each position's gap slot by slot, fills
  the checkpoints and the optimality mask, and keeps calling ``probe``
  every slot. A player that answers None is stepped, and so is everyone
  else in that slot.
- **Interned observations.** A player's observation depends only on its
  arm, its arm's count and the arm's draw. ``run`` builds the two
  observations for each (arm, count), one for a 0 draw and one for a 1,
  and the two one-slot block outcomes, the first time a plan needs them,
  so a run builds at most 2·K·M of each and a stepped player-slot or a
  one-slot position builds none. ``run`` also binds every player's
  ``next_action`` and ``observe`` once, before the first slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle as cycle_of
from itertools import islice
from math import lcm
from operator import getitem, itemgetter
from typing import Callable, Protocol, Sequence

import numpy as np

from .model import (
    EnvSpec,
    Feedback,
    OptimalProfile,
    is_integral,
    optimal_profile_for,
)

_CHUNK = 8192  # slots of pre-drawn arm randomness held at a time
_SPAN = 1024  # most slots of a block in which no position repeats
# Slot plans kept per run; the memo starts over past this, so a policy whose
# action tuples rarely repeat cannot grow it without bound.
_MAX_PLANS = 4096


class InvalidActionError(RuntimeError):
    """A policy emitted an arm index outside [0, K), or a ``schedule`` answer
    that is not ``(n, arms)`` or ``(n, arms, shared)``, or has n < 1 or an
    empty cycle."""


@dataclass(frozen=True, slots=True)
class Observation:
    """One player's view of one slot.

    ``reward`` is the arm's total reward (identical for every player on the
    arm). ``count`` is the number of players on the arm under SDI feedback
    and None under SDA; ``shared`` is the 1-bit flag count > 1 and is set in
    both modes. An observation is immutable: the engine hands the same
    object to every player on the arm and reuses it in later slots.
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
    """One player. The engine calls ``next_action`` then ``observe`` each slot.

    A policy may also state blocks with two methods, both or neither:

    - ``schedule(t) -> (n, arms)`` or None, with n >= 1 and ``arms`` a
      non-empty tuple: at slots s = t, ..., t + n - 1 it plays
      ``arms[(s - t) % len(arms)]``, whatever it observes in them. None
      means "step me this slot". The answer ``(n, arms, shared)``, with
      ``shared`` a bool, says the same provided that in every one of
      those slots its arm's shared flag (count > 1) equals ``shared``.
      The engine then takes the block only up to the first slot whose
      planned count breaks that, and steps the slot if it is the first.
      Any other answer is malformed. The query has no side effects:
      asked twice, it answers the same and changes nothing.
    - ``observe_block(outcomes)``: the outcome of a block of such slots at
      once. The block has period P, the lcm of every player's cycle
      length, and ``outcomes`` holds one ``(obs, hits, slots)`` per
      position j < min(n, P) of it: ``obs`` is the observation of a 1 draw
      on the player's arm at that position, ``arms[j % len(arms)]``, with
      that arm's count there; ``slots`` is the number of the block's slots
      at position j, and ``hits`` the number of those whose draw was 1.

    When every player states blocks, the engine asks them for their
    schedules in player order before each slot. At the first None it steps
    the slot for everyone, and otherwise it takes the shortest stated
    block, however short, up to the first slot that breaks a stated flag:
    it calls each player's ``observe_block`` once for it, and no other
    method in it. When P is at least that length, it takes at most
    ``_SPAN`` (1,024) of its slots and then asks again, so a policy counts
    the slots it is given rather than assume its whole statement. ``phase``
    is read after a block's last slot, so a policy may change it only at a
    block end. A player committed to one arm for good states
    ``(T - t, (arm,))``.

    The engine reads ``next_action``, ``observe`` and ``schedule`` once
    per run, before the first slot, and calls those bound methods. It reads
    no other name of a policy but ``observe_block`` and ``phase``.
    """

    def next_action(self, t: int) -> int: ...

    def observe(self, obs: Observation) -> None: ...


PolicyFactory = Callable[[int, PublicEnvInfo], Policy]
# Called after every slot with the slot, the players and the players per
# arm. ``counts`` is read-only: the engine may pass the same dict object in
# many slots, including every slot of a block.
Probe = Callable[[int, Sequence[Policy], dict[int, int]], None]

# One player's part of a slot plan: its observation when its arm's X_k is 0
# and when it is 1. The second carries the capped factor min(a_k, m_k).
_Entry = tuple[Observation, Observation]
# The same player's ``observe_block`` outcome of one slot, (hit obs, X_k, 1),
# when X_k is 0 and when it is 1.
_Single = tuple[tuple[Observation, int, int], tuple[Observation, int, int]]


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


def _plan(
    actions: Sequence[int],
    caps: Sequence[int],
    sdi: bool,
    entries: dict[tuple[int, int], tuple[_Entry, _Single]],
) -> tuple[dict[int, int], tuple[_Entry, ...], tuple[_Single, ...]]:
    """Apply the reward rule min(a_k, m_k) * X_k to one action profile.

    Returns the players per arm, in first-appearance order, and each
    player's entry and single outcomes in action order; a player's reward is
    its factor when its arm's X_k is 1 and 0.0 otherwise. ``entries`` interns
    both by (arm, count), so plans that share them share the objects.
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
    players = []
    singles = []
    for a in actions:
        c = counts[a]
        interned = entries.get((a, c))
        if interned is None:
            factor = float(c if c <= caps[a] else caps[a])
            count = c if sdi else None
            hit = Observation(a, factor, count, c > 1)
            interned = entries[a, c] = (
                (Observation(a, 0.0, count, c > 1), hit),
                ((hit, 0, 1), (hit, 1, 1)),
            )
        players.append(interned[0])
        singles.append(interned[1])
    return counts, tuple(players), tuple(singles)


def _raised_by(tb, policies: Sequence[Policy]) -> tuple[int, str] | None:
    """The player whose method a traceback passes through first, and the method.

    Walks from ``run`` inward to the first frame whose ``self`` is one of
    the players. Returns None when the error did not come from a player.
    """
    while tb is not None:
        frame = tb.tb_frame
        owner = frame.f_locals.get("self")
        for i, policy in enumerate(policies):
            if policy is owner:
                return i, frame.f_code.co_name
        tb = tb.tb_next
    return None


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

    An error raised in a player's method, and the ``InvalidActionError`` of
    an arm outside [0, K) or a malformed ``schedule`` answer, propagates
    with the slot (a block's slots for ``observe_block``, its first slot for
    a stated answer), the player and its phase appended to its message.
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

    cps = list(checkpoints)
    if any(not is_integral(c) for c in cps):
        raise ValueError(f"checkpoints must be integers, got {cps}")
    cps = sorted(set(int(c) for c in cps))
    if any(c < 1 or c > T for c in cps):
        raise ValueError("checkpoints must lie in [1, horizon]")
    cp_set = set(cps)
    cp_regret: list[float] = []

    optimal_mask = np.zeros(T, dtype=bool)
    phase_events: list[tuple[int, str]] = []
    last_phase: str | None = None

    # action tuple -> (player entries, gap, optimal, counts, player singles)
    plans: dict[tuple[int, ...], tuple] = {}
    entries: dict[tuple[int, int], tuple[_Entry, _Single]] = {}

    def plan_for(arms: Sequence[int]) -> tuple:
        counts, players, singles = _plan(arms, caps, sdi, entries)
        f_t = 0.0
        for a, c in counts.items():
            f_t += (c if c <= caps[a] else caps[a]) * means[a]
        if len(plans) == _MAX_PLANS:
            plans.clear()
        plan = plans[tuple(arms)] = (players, fstar - f_t, counts == opt_items, counts, singles)
        return plan

    regret = 0.0
    means_array = np.asarray(means)
    next_actions = [p.next_action for p in policies]
    observers = [p.observe for p in policies]
    schedules = [getattr(p, "schedule", None) for p in policies]
    blocks = None not in schedules  # whether the run can take blocks

    def draw(t: int) -> bytes:
        """X_k bytes of the chunk that starts at slot t, K per slot."""
        return (env_rng.random((min(_CHUNK, T - t), K)) < means_array).tobytes()

    draws = b""
    offset = 0
    stray = None  # the player whose schedule answer was malformed
    t = 0
    try:
        while t < T:
            n = 0  # the slots of the block taken at t; 0 steps the slot
            if blocks:
                # Ask the players in order and step the slot at the first
                # None, so the players after it are not asked.
                stated = []
                for schedule in schedules:
                    answer = schedule(t)
                    if answer is None:
                        break
                    stated.append(answer)
                else:
                    # Every player stated a cycle: take the shortest block.
                    # Its profile repeats with the period P, the lcm of the
                    # cycle lengths.
                    n = T - t
                    period = 1
                    cycles = []
                    conditions = []  # (player, the shared flag its answer needs)
                    for i, answer in enumerate(stated):
                        size = len(answer) if type(answer) is tuple else 0
                        if (
                            not (size == 2 or size == 3 and type(answer[2]) is bool)
                            or answer[0] < 1
                            or not answer[1]
                        ):
                            stray = i
                            raise InvalidActionError(f"schedule answer {answer!r} is malformed")
                        m, cycle = answer[0], answer[1]
                        if size == 3:
                            conditions.append((i, answer[2]))
                        n = min(n, m)
                        period = lcm(period, len(cycle))
                        cycles.append(cycle)
                    if period >= n:
                        # No position repeats, so each slot is one: take at
                        # most _SPAN of them, as the outcomes hold one per slot.
                        n = min(n, _SPAN)
                    width = min(n, period)  # positions the block reaches
                    at = []  # the plan of each position
                    for j, arms in enumerate(islice(zip(*map(cycle_of, cycles)), width)):
                        plan = plans.get(arms) or plan_for(arms)
                        counts = plan[3]
                        if conditions and any(
                            (counts[arms[i]] > 1) is not shared for i, shared in conditions
                        ):
                            # The block ends before the first position that
                            # breaks a condition; at position 0, step.
                            n = width = j
                            break
                        at.append(plan)
            if not n:
                if offset == len(draws):
                    offset = 0
                    draws = draw(t)
                row = draws[offset : offset + K]
                offset += K

                arms = [next_action(t) for next_action in next_actions]
                players, gap, optimal, counts, _ = plans.get(tuple(arms)) or plan_for(arms)
                for observe, a, (miss, hit) in zip(observers, arms, players):
                    observe(hit if row[a] else miss)
            else:
                last = t + n - 1
                per_slot = period >= n
                # Hits per (position, occupied arm), counted in each chunk the
                # block spans; chunks are drawn at the slots stepping would.
                # Position j's slots are P rows apart. When each slot is its
                # own position, its rows are kept instead, K bytes per slot.
                hits = [] if per_slot else [dict.fromkeys(plan[3], 0) for plan in at]
                rows = []
                stride = K * period
                s = t
                while s <= last:
                    if offset == len(draws):
                        offset = 0
                        draws = draw(s)
                    take = min(last + 1 - s, (len(draws) - offset) // K)
                    stop = offset + take * K
                    if per_slot:
                        rows += [draws[o : o + K] for o in range(offset, stop, K)]
                    else:
                        for j, counted in enumerate(hits):
                            start = offset + (j - (s - t)) % period * K
                            for a in counted:
                                counted[a] += draws[start + a : stop : stride].count(1)
                    offset = stop
                    s += take
                if per_slot:
                    # Each player's outcomes are built at C level: per slot,
                    # its single outcomes there indexed by its arm's draw.
                    for policy, singles, cycle in zip(
                        policies, zip(*map(itemgetter(4), at)), cycles
                    ):
                        drawn = map(getitem, rows, cycle_of(cycle))
                        policy.observe_block(list(map(getitem, singles, drawn)))
                else:
                    for i, (policy, cycle) in enumerate(zip(policies, cycles)):
                        size = len(cycle)
                        policy.observe_block([
                            (at[j][0][i][1], hits[j][cycle[j % size]], (n - j - 1) // period + 1)
                            for j in range(width)
                        ])
                # Every slot of the block but its last, which the tail below
                # takes. Regret is added slot by slot: n * gap rounds otherwise.
                for j, (_, _, optimal, _, _) in enumerate(at):
                    if optimal:
                        optimal_mask[t + j : last : period] = True
                for s, (_, gap, _, counts, _) in zip(range(t, last), cycle_of(at)):
                    regret += gap
                    if s + 1 in cp_set:
                        cp_regret.append(regret)
                    if probe is not None:
                        probe(s, policies, counts)
                _, gap, optimal, counts, _ = at[(n - 1) % period]
                t = last

            regret += gap
            if optimal:
                optimal_mask[t] = True

            phase = getattr(policies[0], "phase", None)
            if phase is not None and phase != last_phase:
                phase_events.append((t, str(phase)))
                last_phase = phase

            if t + 1 in cp_set:
                cp_regret.append(regret)

            if probe is not None:
                probe(t, policies, counts)
            t += 1
    except Exception as exc:
        raised = _raised_by(exc.__traceback__, policies)
        if raised is not None:
            i, method = raised
        elif isinstance(exc, InvalidActionError):
            # A malformed schedule answer, or _plan rejected the slot's
            # profile: name the first player off it.
            i = stray
            if i is None:
                i = next(i for i, a in enumerate(arms) if not 0 <= a < K)
            method = "next_action"
        else:
            raise
        where = f"slots {t}-{t + n - 1}" if method == "observe_block" else f"slot {t}"
        phase = getattr(policies[i], "phase", None)
        exc.args = (f"{exc} at {where}, player {i} in phase {phase!r}",)
        raise

    return RunTrace(
        horizon=T,
        checkpoints=tuple(cps),
        checkpoint_regret=tuple(cp_regret),
        final_regret=regret,
        optimal_mask=optimal_mask,
        phase_events=tuple(phase_events),
    )
