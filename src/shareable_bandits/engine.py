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
  whatever it observes provided its arm's count stays in a stated range at
  each position of the cycle, and then take those slots' outcome in one
  call (``observe_block``). Blocks are per player. A player that states one
  rides it: the engine plays its stated arms and does not call its
  ``next_action`` or ``observe``, and it steps only the players that
  answered None. Slots with riders are planned per regime, a stretch with
  one set of riders: a memo keyed by the riders' joint period position and
  the stepped players' arms gives the slot's plan, the riders whose range
  it breaks and the stepped players' entries, so a slot costs the same
  however many ride. A ride ends at its stated end, after ``_SPAN`` slots,
  or before the first slot whose planned count breaks its range, where the
  player is stepped. The engine keeps each ridden slot's plan and row of
  draws meanwhile, and hands the player its outcomes, one per slot, when
  the ride ends. A player committed for good states one arm to the horizon.
- **Blocks of everyone.** When every player states a cycle in the same
  slot (riders are handed their slots so far and asked again), the engine
  takes the shortest block at once, with one plan per position of the
  period P, the lcm of the cycle lengths. The plans fix every count before
  anything is drawn, so it checks each stated range against them and cuts
  the block before the first position that breaks one, stepping the slot
  when that is position 0. It counts each position's hits on each occupied
  arm in the drawn chunks, P rows apart, and draws the chunks at the slots
  stepping would. When P is at least the block's length, as in SIC's
  communication stages, no position repeats and every slot is its own
  position: the engine then takes at most ``_SPAN`` slots and keeps each
  slot's row of draws. Each player's outcomes are then, as a ride's, a
  read-only sequence whose entries, its interned one-slot outcomes indexed
  by its arm's draw, are built only when read. Either way the engine folds
  the positions' gaps into the regret at C level, in slot order, between
  the checkpoints inside the block, fills the optimality mask, and keeps
  calling ``probe`` every slot.
- **Interned observations.** A player's observation depends only on its
  arm, its arm's count and the arm's draw. ``run`` builds the two
  observations for each (arm, count), one for a 0 draw and one for a 1,
  and the two one-slot block outcomes, the first time a plan needs them,
  so a run builds at most 2·K·M of each and a stepped player-slot or a
  one-slot position builds none. ``run`` also binds every player's
  ``next_action`` and ``observe`` once, before the first slot.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import compress, islice, repeat
from itertools import cycle as cycle_of
from math import lcm
from operator import add, getitem, itemgetter, mod
from typing import Callable, Protocol

import numpy as np

from .model import (
    EnvSpec,
    Feedback,
    OptimalProfile,
    is_integral,
    optimal_profile_for,
)

_CHUNK = 8192  # slots of pre-drawn arm randomness held at a time
_SPAN = 1024  # most slots of a block in which no position repeats (a row of K bytes each)
# Slot plans kept per run; the memo starts over past this, so a policy whose
# action tuples rarely repeat cannot grow it without bound.
_MAX_PLANS = 4096


class InvalidActionError(RuntimeError):
    """A policy emitted an arm index outside [0, K), or a ``schedule`` answer
    that is not ``(n, arms)`` or ``(n, arms, ranges)`` with one ``(lo, hi)``
    range per arm of the cycle, or has n < 1 or an empty cycle."""


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
      means "step me this slot". The answer ``(n, arms, ranges)``, with
      ``ranges`` a tuple of one ``(lo, hi)`` pair per arm of the cycle,
      says the same provided that in each of those slots its arm's count
      lies in [lo, hi] of the slot's position in the cycle. The engine
      then holds the statement only up to the first slot whose planned
      count breaks its range, and steps the player in that slot. Any other
      answer is malformed. The query has no side effects: asked twice, it
      answers the same and changes nothing.
    - ``observe_block(outcomes)``: the outcome of such slots at once, one
      ``(obs, hits, slots)`` per position j of them: ``obs`` is the
      observation of a 1 draw on the player's arm at j, ``arms[j %
      len(arms)]``, with that arm's count there; ``slots`` is the number of
      slots at position j, and ``hits`` the number of those whose draw was
      1. ``outcomes`` is a read-only sequence: it has a length and
      supports iteration, indexing and slicing.

    Before each slot the engine asks every idle player, one that is not
    riding a block, for its schedule. A player that states a block rides
    it, and only the players that answered None are stepped. A ride ends
    at its stated end, after ``_SPAN`` (1,024) slots, or before the first
    slot that breaks its range, in which the player is then stepped. When
    it ends, the player gets one ``observe_block`` whose outcomes are one
    per slot it rode (``slots`` is 1), built when read, and it is idle
    again from the next slot it is not stepped in. Its ``next_action`` and
    ``observe`` are not called in a ride, and a probe sees its state as of
    the ride's start.

    When every idle player states a block, riders are handed their slots
    so far and asked again, and if every player states one, the engine
    takes the shortest block of everyone, however short, up to the first
    slot that breaks a stated range. It has period P, the lcm of every
    player's cycle length, and each player's outcomes hold one entry per
    position j < min(n, P). When P is at least the block's length, each
    entry is one slot's, built when read, and the engine takes at most
    ``_SPAN`` slots and then asks again. So a policy counts the slots it
    is given rather than assume its whole statement. ``phase`` is read
    after every slot, and a ride that a broken range or a block of
    everyone ends is handed over in the slot after its last, so a policy
    may change its phase only at the end of what it stated. A player
    committed to one arm for good states ``(T - t, (arm,))``.

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


class _PerSlot(Sequence):
    """One player's outcomes of a block with one slot per position.

    Entry j is the player's single outcome at position j, indexed by its
    arm's draw in slot j's row. Entries are built when read, so a player
    that reads only the length builds none.
    """

    __slots__ = ("_at", "_rows", "_cycle", "_player", "_n")

    def __init__(
        self, at: list[tuple], rows: list[bytes], cycle: tuple[int, ...], player: int, n: int
    ) -> None:
        self._at, self._rows, self._cycle, self._player, self._n = at, rows, cycle, player, n

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[tuple]:
        return self._read(self._at, self._rows, cycle_of(self._cycle))

    def __getitem__(self, index):
        cycle = self._cycle
        if isinstance(index, slice):
            positions = range(self._n)[index]
            arms = map(cycle.__getitem__, map(mod, positions, repeat(len(cycle))))
            return list(self._read(self._at[index], self._rows[index], arms))
        j = range(self._n)[index]  # raises IndexError past either end
        return self._at[j][4][self._player][self._rows[j][cycle[j % len(cycle)]]]

    def _read(self, at: list[tuple], rows: list[bytes], arms: Iterable[int]) -> Iterator[tuple]:
        singles = map(itemgetter(self._player), map(itemgetter(4), at))
        return map(getitem, singles, map(getitem, rows, arms))


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


def _statement(answer) -> tuple[int, tuple[int, ...], tuple | None] | None:
    """A ``schedule`` answer as (n, arms, ranges), or None if it is malformed.

    ``ranges`` is None when the answer states none.
    """
    size = len(answer) if type(answer) is tuple else 0
    if size == 3:
        ranges = answer[2]
        if not (
            type(ranges) is tuple
            and len(ranges) == len(answer[1])
            and all(type(r) is tuple and len(r) == 2 for r in ranges)
        ):
            return None
    elif size == 2:
        ranges = None
    else:
        return None
    if answer[0] < 1 or not answer[1]:
        return None
    return answer[0], answer[1], ranges


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
    with the slot (for ``observe_block``, the slots the player rode or the
    block's; for a stated answer, its first slot), the player and its phase
    appended to its message.
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
    stray = None  # the player of a malformed schedule answer or of an arm out of range

    def plan_for(arms: Sequence[int]) -> tuple:
        nonlocal stray
        try:
            counts, players, singles = _plan(arms, caps, sdi, entries)
        except InvalidActionError:
            stray = next(i for i, a in enumerate(arms) if not 0 <= a < K)
            raise
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

    def draw(t: int) -> bytes:
        """X_k bytes of the chunk that starts at slot t, K per slot."""
        return (env_rng.random((min(_CHUNK, T - t), K)) < means_array).tobytes()

    # Rides: player -> (first slot, end slot, cycle, ranges). While anyone
    # rides, the plan and the row of draws of each slot from ``log_start`` on
    # are kept, and a ride's outcomes are built from them when it ends.
    rides: dict[int, tuple] = {}
    log_plans: list[tuple] = []
    log_rows: list[bytes] = []
    log_start = 0
    handed = (0, 0)  # the slots of the block outcomes last handed to a player

    def end_ride(i: int, last: int) -> None:
        """End player i's ride and hand it the outcomes of its slots up to ``last``."""
        nonlocal handed
        first, _, cycle, _ = rides.pop(i)
        if first > last:
            return  # its range broke at its first slot: it rode none
        handed = (first, last)
        k, n = first - log_start, last + 1 - first
        policies[i].observe_block(_PerSlot(log_plans[k : k + n], log_rows[k : k + n], cycle, i, n))

    def settle(t: int) -> tuple:
        """The slot loop's state from slot t on, for the current rides.

        The idle players, those not riding, are the ones asked for a block
        and stepped. Slot s is position (s - t) % P of the riders' joint
        period P, and the returned memo maps (position, stepped players'
        arms) to that slot's entry (``ride_plan``).
        """
        nonlocal log_start
        idle = [i for i in range(M) if i not in rides]
        keep = min((first for first, _, _, _ in rides.values()), default=t)
        del log_plans[: keep - log_start], log_rows[: keep - log_start]
        log_start = keep
        riders = [
            (i, cycle, ranges, (t - first) % len(cycle))
            for i, (first, _, cycle, ranges) in rides.items()
        ]
        return (
            idle,
            [(i, schedules[i]) for i in idle if schedules[i] is not None],
            [next_actions[i] for i in idle],
            [observers[i] for i in idle],
            riders,
            lcm(*(len(cycle) for _, cycle, _, _ in riders)),
            min((end for _, end, _, _ in rides.values()), default=T),
            {},
        )

    def ride_plan(key: tuple, idle: list[int], riders: list[tuple], memo: dict) -> tuple:
        """The memo entry of a slot with riders, by its ``key``: its position
        in the riders' joint period, then the stepped players' arms.

        The entry is the slot's plan, the riders whose range its counts
        break, the stepped players' (arm, entry) pairs and every arm.
        """
        pos = key[0]
        arms = [0] * M
        for i, a in zip(idle, key[1:]):
            arms[i] = a
        for i, cycle, _, offset in riders:
            arms[i] = cycle[(pos + offset) % len(cycle)]
        plan = plans.get(tuple(arms)) or plan_for(arms)
        counts = plan[3]
        breaks = []
        for i, cycle, ranges, offset in riders:
            if ranges is not None:
                lo, hi = ranges[(pos + offset) % len(cycle)]
                if not lo <= counts[arms[i]] <= hi:
                    breaks.append(i)
        if len(memo) == _MAX_PLANS:
            memo.clear()
        entry = memo[key] = (plan, breaks, [(arms[i], plan[0][i]) for i in idle], arms)
        return entry

    draws = b""
    offset = 0
    idle, askers, step_next, step_obs, riders, joint, next_end, memo = settle(0)
    pos = 0  # the slot's position in the riders' joint period
    t = 0
    try:
        while t < T:
            n = 0  # the slots of a block of everyone taken at t; 0 steps the slot
            if askers:
                stated = []
                for i, schedule in askers:
                    answer = schedule(t)
                    if answer is not None:
                        stated.append((i, answer))
                if stated:
                    # Every idle player states a block: end the rides here
                    # and ask the riders again, so that everyone may take
                    # one block.
                    flush = len(stated) == len(idle) and bool(rides)
                    if flush:
                        for i in sorted(rides):
                            end_ride(i, t - 1)
                            answer = schedules[i](t)
                            if answer is not None:
                                stated.append((i, answer))
                        stated.sort(key=itemgetter(0))
                    statements = []
                    for i, answer in stated:
                        statement = _statement(answer)
                        if statement is None:
                            stray = i
                            raise InvalidActionError(f"schedule answer {answer!r} is malformed")
                        statements.append(statement)
                    if len(stated) < M:
                        for (i, _), (m, cycle, ranges) in zip(stated, statements):
                            rides[i] = (t, min(t + min(m, _SPAN), T), cycle, ranges)
                    else:
                        # Every player states a cycle: take the shortest
                        # block. Its profile repeats with the period P, the
                        # lcm of the cycle lengths.
                        n = T - t
                        period = 1
                        cycles = []
                        conditions = []  # (player, the count range of each position)
                        for i, (m, cycle, ranges) in enumerate(statements):
                            if ranges is not None:
                                conditions.append((i, ranges))
                            n = min(n, m)
                            period = lcm(period, len(cycle))
                            cycles.append(cycle)
                        if period >= n:
                            # No position repeats, so each slot is one: take at
                            # most _SPAN of them, as each keeps its row of draws.
                            n = min(n, _SPAN)
                        width = min(n, period)  # positions the block reaches
                        keys = list(islice(zip(*map(cycle_of, cycles)), width))
                        at = list(map(plans.get, keys))  # the plan of each position
                        if conditions or None in at:
                            for j, arms in enumerate(keys):
                                plan = at[j] = at[j] or plans.get(arms) or plan_for(arms)
                                counts = plan[3]
                                for i, ranges in conditions:
                                    lo, hi = ranges[j % len(ranges)]
                                    if not lo <= counts[arms[i]] <= hi:
                                        break
                                else:
                                    continue
                                # The block ends before the first position that
                                # breaks a range; at position 0, step.
                                n = width = j
                                del at[j:]
                                break
                    if flush or len(stated) < M:  # the riders changed
                        idle, askers, step_next, step_obs, riders, joint, next_end, memo = settle(t)
                        pos = 0
            if n:
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
                        ends = range(offset + K, stop + K, K)
                        rows += map(draws.__getitem__, map(slice, range(offset, stop, K), ends))
                    else:
                        for j, counted in enumerate(hits):
                            start = offset + (j - (s - t)) % period * K
                            for a in counted:
                                counted[a] += draws[start + a : stop : stride].count(1)
                    offset = stop
                    s += take
                handed = (t, last)
                if per_slot:
                    # Each player's outcomes are built when read: per slot,
                    # its single outcomes there indexed by its arm's draw.
                    for i, (policy, cycle) in enumerate(zip(policies, cycles)):
                        policy.observe_block(_PerSlot(at, rows, cycle, i, n))
                else:
                    for i, (policy, cycle) in enumerate(zip(policies, cycles)):
                        size = len(cycle)
                        policy.observe_block([
                            (at[j][0][i][1], hits[j][cycle[j % size]], (n - j - 1) // period + 1)
                            for j in range(width)
                        ])
                # Every slot of the block but its last, which the tail below
                # takes. Regret is a left fold of the gaps between checkpoints,
                # so it makes the same float additions in the same order.
                for j in compress(range(width), map(itemgetter(2), at)):
                    optimal_mask[t + j : last : period] = True
                gaps = cycle_of(map(itemgetter(1), at))
                s = t
                for c in cps[bisect_right(cps, t) : bisect_right(cps, last)]:
                    regret = reduce(add, islice(gaps, c - s), regret)
                    cp_regret.append(regret)
                    s = c
                regret = reduce(add, islice(gaps, last - s), regret)
                if probe is not None:
                    for s, plan in zip(range(t, last), cycle_of(at)):
                        probe(s, policies, plan[3])
                _, gap, optimal, counts, _ = at[(n - 1) % period]
                t = last
            else:
                if offset == len(draws):
                    offset = 0
                    draws = draw(t)
                row = draws[offset : offset + K]
                offset += K
                if not rides:
                    arms = [next_action(t) for next_action in next_actions]
                    players, gap, optimal, counts, _ = plans.get(tuple(arms)) or plan_for(arms)
                    for observe, a, (miss, hit) in zip(observers, arms, players):
                        observe(hit if row[a] else miss)
                else:
                    # One stepped player, as DPE's leader, costs no comprehension.
                    if len(step_next) == 1:
                        key = (pos, step_next[0](t))
                    else:
                        key = (pos, *[next_action(t) for next_action in step_next])
                    entry = memo.get(key) or ride_plan(key, idle, riders, memo)
                    plan, breaks, stepped, arms = entry
                    observing = step_obs
                    if breaks:
                        # These riders' ranges break in this slot: their
                        # rides end at the slot before, and they are stepped.
                        arms = arms[:]
                        for i in breaks:
                            end_ride(i, t - 1)
                            arms[i] = next_actions[i](t)
                        plan = plans.get(tuple(arms)) or plan_for(arms)
                        now = sorted(idle + breaks)
                        observing = [observers[i] for i in now]
                        stepped = [(arms[i], plan[0][i]) for i in now]
                    for observe, (a, (miss, hit)) in zip(observing, stepped):
                        observe(hit if row[a] else miss)
                    log_plans.append(plan)
                    log_rows.append(row)
                    _, gap, optimal, counts, _ = plan
                    pos += 1
                    if pos == joint:
                        pos = 0
                    if t + 1 == next_end or breaks:
                        for i in [i for i, ride in rides.items() if ride[1] == t + 1]:
                            end_ride(i, t)
                        idle, askers, step_next, step_obs, riders, joint, next_end, memo = settle(
                            t + 1
                        )
                        pos = 0

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
            i, method = stray, "next_action"
        else:
            raise
        where = f"slots {handed[0]}-{handed[1]}" if method == "observe_block" else f"slot {t}"
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
