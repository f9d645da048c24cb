"""Synchronous lockstep simulator.

``run`` is the one driver. Each slot it polls every player for an arm,
draws one Bernoulli per-load reward per arm (shared by all players on that
arm), and hands each player only its own observation. Players never see
anything else: the observation carries the arm's total reward plus either
the sharing count (SDI) or a 1-bit shared flag (SDA).

``run`` is kept cheap without changing a single output value:

- **Slot plans.** Everything about a slot except the arm draws depends only
  on the action profile: each player's arm, capped factor min(a_k, m_k),
  count and shared flag, the slot's regret gap and whether it is optimal.
  ``run`` builds this plan once per distinct action tuple, so a slot is one
  lookup plus the draws. The observations are interned per (arm, count,
  draw), at most 2·K·M per run, and shared between players and slots.
- **Stretches.** Stepped slots run in stretches. ``run`` finds the next
  event once, the end of the drawn chunk, the next checkpoint or the
  earliest ride's end, and steps every slot up to it in a tight loop that
  asks the idle players for a block, steps them, hands out the
  observations, adds the slot's gap and calls ``probe``. A block answer
  ends the stretch before its slot, and a broken range after it. Player
  0's phase is read after each slot in which it is stepped, and where it
  is handed what it stated.
- **Rides.** A player that states a block (``Policy``) rides it: the engine
  plays its stated arms and steps only the others. While the same players
  ride, a memo keyed by the riders' joint period position and the stepped
  players' arms gives each slot's plan and the riders whose range it
  breaks, so a slot costs the same however many ride. The engine keeps
  each ridden slot's plan and row of draws, and builds the rider's
  outcomes from them when the ride ends.
- **Blocks of everyone.** When every player states a cycle in the same
  slot, the engine takes the shortest block at once, with one plan per
  position of the period P, the lcm of the cycle lengths, cut before the
  first position whose planned counts break a stated range. It counts each
  position's hits on each occupied arm in the drawn chunks, P rows apart.
  When P is at least the block's length, as in SIC's communication stages,
  every slot is its own position: the engine takes at most ``_SPAN`` slots
  and keeps their rows. Either way it folds the gaps into the regret at C
  level, in slot order, and calls ``probe`` every slot.
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
      lies in [lo, hi] of the slot's position in the cycle. Any other
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
    slot whose planned count breaks its range, in which the player is then
    stepped. When it ends, the player gets one ``observe_block`` with one
    outcome per slot it rode (``slots`` is 1), and it is idle again from
    the next slot it is not stepped in. Its ``next_action`` and
    ``observe`` are not called in a ride, and a probe sees its state as of
    the ride's start in every slot it rides.

    When every idle player states a block, riders are handed their slots
    so far and asked again, and if every player states one, the engine
    takes the shortest block of everyone, however short, up to the first
    slot that breaks a stated range. It has period P, the lcm of every
    player's cycle length, and each player's outcomes hold one entry per
    position j < min(n, P). When P is at least the block's length, each
    entry is one slot's, and the engine takes at most ``_SPAN`` slots and
    then asks again. So a policy counts the slots it is given rather than
    assume its whole statement. A player committed to one arm for good
    states ``(T - t, (arm,))``.

    Player 0's ``phase`` is read after each slot in which it is stepped,
    and where it is handed what it stated: at the last slot of a ride that
    ends at its stated end or after ``_SPAN`` slots, and of a block of
    everyone. A ride that a broken range or a block of everyone ends is
    handed over in a later slot, so a policy may change its phase only in
    a slot it is stepped in or at the end of what it stated.

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
    arm's draw in slot j, which ``rows`` holds from byte ``starts[j]`` on,
    one row per slot. Entries are built when read, so a player that reads
    only the length builds none.
    """

    __slots__ = ("_at", "_rows", "_starts", "_cycle", "_player", "_n")

    def __init__(
        self, at: list[tuple], rows: bytes, cycle: tuple[int, ...], player: int, n: int
    ) -> None:
        self._at, self._rows, self._cycle, self._player, self._n = at, rows, cycle, player, n
        self._starts = range(0, len(rows), len(rows) // n)

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[tuple]:
        return self._read(self._at, self._starts, cycle_of(self._cycle))

    def __getitem__(self, index):
        cycle = self._cycle
        if isinstance(index, slice):
            positions = range(self._n)[index]
            arms = map(cycle.__getitem__, map(mod, positions, repeat(len(cycle))))
            return list(self._read(self._at[index], self._starts[index], arms))
        j = range(self._n)[index]  # raises IndexError past either end
        return self._at[j][4][self._player][self._rows[self._starts[j] + cycle[j % len(cycle)]]]

    def _read(self, at: list[tuple], starts: range, arms: Iterable[int]) -> Iterator[tuple]:
        singles = map(itemgetter(self._player), map(itemgetter(4), at))
        return map(getitem, singles, map(self._rows.__getitem__, map(add, starts, arms)))


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
            and set(map(type, ranges)) == {tuple}
            and set(map(len, ranges)) == {2}
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
    cp_regret: list[float] = []

    optimal_mask = bytearray(T)  # 1 where the profile equalled the optimum
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
    log_rows = bytearray()  # K bytes per slot
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
        rows = log_rows[k * K : (k + n) * K]
        policies[i].observe_block(_PerSlot(log_plans[k : k + n], rows, cycle, i, n))

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
        del log_plans[: keep - log_start], log_rows[: (keep - log_start) * K]
        log_start = keep
        riders = [
            (i, cycle, ranges, (t - first) % len(cycle))
            for i, (first, _, cycle, ranges) in rides.items()
        ]
        return (
            idle,
            [(i, schedules[i]) for i in idle if schedules[i] is not None],
            [next_actions[i] for i in idle],
            riders,
            lcm(*(len(cycle) for _, cycle, _, _ in riders)),
            min((end for _, end, _, _ in rides.values()), default=T),
            {},
        )

    def ride_plan(key: tuple, idle: list[int], riders: list[tuple], memo: dict) -> tuple:
        """The memo entry of a slot with riders, by its ``key``: its position
        in the riders' joint period, then the stepped players' arms.

        The entry is the slot's plan, the riders whose range its counts
        break, the stepped players' (``observe``, arm, entry) and every arm.
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
        stepped = [(observers[i], arms[i], plan[0][i]) for i in idle]
        entry = memo[key] = (plan, breaks, stepped, arms)
        return entry

    def read_phase(t: int) -> None:
        """Record player 0's phase after slot t, if it changed."""
        nonlocal last_phase
        phase = getattr(first, "phase", None)
        if phase is not None and phase != last_phase:
            phase_events.append((t, str(phase)))
            last_phase = phase

    draws = b""
    offset = 0
    idle, askers, step_next, riders, joint, next_end, memo = settle(0)
    pos = 0  # the slot's position in the riders' joint period
    marks = [*cps, T + 1]  # a stretch ends before each; regret is sampled there
    first = policies[0]
    stated = []  # (player, answer) of the idle players that state a block at slot t
    t = 0
    try:
        while t < T:
            n = None  # the slots of a block of everyone taken at t
            if stated:
                # Every idle player states a block: end the rides here and
                # ask the riders again, so that everyone may take one block.
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
                    # Every player states a cycle: take the shortest block.
                    # Its profile repeats with the period P, the lcm of the
                    # cycle lengths.
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
                    idle, askers, step_next, riders, joint, next_end, memo = settle(t)
                    pos = 0
                stated = []
            if n:
                end = t + n
                per_slot = period >= n
                # Hits per (position, occupied arm), counted in each chunk the
                # block spans; chunks are drawn at the slots stepping would.
                # Position j's slots are P rows apart. When each slot is its
                # own position, its rows are kept instead, K bytes per slot.
                hits = [] if per_slot else [dict.fromkeys(plan[3], 0) for plan in at]
                rows = bytearray()
                stride = K * period
                s = t
                while s < end:
                    if offset == len(draws):
                        offset = 0
                        draws = draw(s)
                    take = min(end - s, (len(draws) - offset) // K)
                    stop = offset + take * K
                    if per_slot:
                        rows += draws[offset:stop]
                    else:
                        for j, counted in enumerate(hits):
                            start = offset + (j - (s - t)) % period * K
                            for a in counted:
                                counted[a] += draws[start + a : stop : stride].count(1)
                    offset = stop
                    s += take
                handed = (t, end - 1)
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
                # Regret is a left fold of the gaps between checkpoints, so
                # it makes the same float additions in the same order.
                for j in compress(range(width), map(itemgetter(2), at)):
                    optimal_mask[t + j : end : period] = b"\1" * len(range(t + j, end, period))
                gaps = cycle_of(map(itemgetter(1), at))
                s = t
                for c in cps[bisect_right(cps, t) : bisect_right(cps, end)]:
                    regret = reduce(add, islice(gaps, c - s), regret)
                    cp_regret.append(regret)
                    s = c
                regret = reduce(add, islice(gaps, end - s), regret)
                read_phase(end - 1)
                if probe is not None:
                    for s, plan in zip(range(t, end), cycle_of(at)):
                        probe(s, policies, plan[3])
                t = end
                continue

            # A stretch: the slots up to the next event, the end of the drawn
            # chunk, the next checkpoint or the earliest ride's end, stepped
            # in a tight loop. An idle player's block answer ends it before
            # its slot, and a broken range after.
            if offset == len(draws):
                offset = 0
                draws = draw(t)
            begin = t
            mark = marks[bisect_right(marks, t)]
            until = min(t + (len(draws) - offset) // K, next_end, mark)
            ask = askers
            if n == 0:  # a stated range breaks at the block's first slot: step it
                ask, until = (), t + 1
            bases = range(offset, len(draws), K)  # the byte at which each slot's row starts
            if not rides:
                for t, base in zip(range(t, until), bases):
                    if ask:
                        for i, schedule in ask:
                            answer = schedule(t)
                            if answer is not None:
                                stated.append((i, answer))
                        if stated:
                            break
                    arms = [next_action(t) for next_action in next_actions]
                    players, gap, optimal, counts, _ = plans.get(tuple(arms)) or plan_for(arms)
                    for observe, a, pair in zip(observers, arms, players):
                        observe(pair[draws[base + a]])
                    regret += gap
                    if optimal:
                        optimal_mask[t] = 1
                    phase = getattr(first, "phase", None)
                    if phase is not None and phase != last_phase:
                        phase_events.append((t, str(phase)))
                        last_phase = phase
                    if probe is not None:
                        probe(t, policies, counts)
                else:
                    t = until
            else:
                # One stepped player, as DPE's leader, costs no comprehension.
                # Player 0's phase is read in the slots it is stepped in, and
                # in every slot of a first stretch, so that slot 0 is read.
                one = step_next[0] if len(step_next) == 1 else None
                lead = 0 not in rides or not begin
                log_rows += draws[offset : offset + (until - t) * K]
                for t, base in zip(range(t, until), bases):
                    if ask:
                        for i, schedule in ask:
                            answer = schedule(t)
                            if answer is not None:
                                stated.append((i, answer))
                        if stated:
                            break
                    if one is None:
                        key = (pos, *[next_action(t) for next_action in step_next])
                    else:
                        key = (pos, one(t))
                    entry = memo.get(key) or ride_plan(key, idle, riders, memo)
                    plan, breaks, stepped, arms = entry
                    if breaks:
                        # These riders' ranges break in this slot: their
                        # rides end at the slot before, and they are stepped.
                        arms = arms[:]
                        for i in breaks:
                            end_ride(i, t - 1)
                            arms[i] = next_actions[i](t)
                        plan = plans.get(tuple(arms)) or plan_for(arms)
                        now = sorted(idle + breaks)
                        stepped = [(observers[i], arms[i], plan[0][i]) for i in now]
                    for observe, a, pair in stepped:
                        observe(pair[draws[base + a]])
                    log_plans.append(plan)
                    regret += plan[1]
                    if plan[2]:
                        optimal_mask[t] = 1
                    pos += 1
                    if pos == joint:
                        pos = 0
                    if lead:
                        phase = getattr(first, "phase", None)
                        if phase is not None and phase != last_phase:
                            phase_events.append((t, str(phase)))
                            last_phase = phase
                    if probe is not None:
                        probe(t, policies, plan[3])
                    if breaks:
                        t += 1
                        break
                else:
                    t = until
                del log_rows[(t - log_start) * K :]
                if t > begin:
                    if t == next_end or breaks:
                        for i in [i for i, ride in rides.items() if ride[1] == t]:
                            end_ride(i, t - 1)
                        idle, askers, step_next, riders, joint, next_end, memo = settle(t)
                        pos = 0
                    read_phase(t - 1)
            offset += (t - begin) * K
            if t == mark:
                cp_regret.append(regret)
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
        optimal_mask=np.frombuffer(optimal_mask, dtype=bool),
        phase_events=tuple(phase_events),
    )
