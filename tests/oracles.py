"""Independent brute-force references for the test suite.

Everything here re-derives expected values from first principles and shares
no code with the library under test (arithmetic duplicated on purpose).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BruteForceResult:
    best_profile: tuple[int, ...]
    best_value: float
    enumeration_count: int


def weak_compositions(total: int, parts: int):
    """All ways to write ``total`` as an ordered sum of ``parts`` >= 0 terms."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in weak_compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_force_optimal(
    means: list[float], capacities: list[int], num_players: int
) -> BruteForceResult:
    """Exhaustive maximizer of the capped one-slot reward."""
    if len(means) > 6 or num_players > 8:
        raise ValueError("instance too large for exhaustive enumeration")
    best_profile: tuple[int, ...] | None = None
    best_value = -1.0
    count = 0
    for profile in weak_compositions(num_players, len(means)):
        count += 1
        value = sum(
            min(a, m) * mu for a, mu, m in zip(profile, means, capacities)
        )
        if value > best_value + 1e-15:
            best_value = value
            best_profile = profile
    assert best_profile is not None
    return BruteForceResult(best_profile, best_value, count)


def _kl(p: float, q: float) -> float:
    if p <= 0.0:
        return -math.log(1.0 - q)
    if p >= 1.0:
        return -math.log(q)
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def klucb_grid(mu_hat: float, pulls: int, t: int, resolution: float = 1e-6) -> float:
    """Largest grid point q with pulls * kl(mu_hat, q) within the budget.

    The divergence is increasing in q above mu_hat, so a coarse pass
    locates the threshold and a fine pass pins it to ``resolution``.
    """
    tt = max(t, 3)
    budget = (math.log(tt) + 4.0 * math.log(math.log(tt))) / pulls
    if mu_hat >= 1.0:
        return 1.0

    def ok(q: float) -> bool:
        return _kl(mu_hat, q) <= budget

    lo, hi = mu_hat, 1.0 - 1e-12
    if ok(hi):
        return 1.0
    coarse = 1e-3
    q = lo
    while q + coarse <= hi and ok(q + coarse):
        q += coarse
    best = q
    while best + resolution <= hi and ok(best + resolution):
        best += resolution
    return best


def simulate_rank_assignment(num_arms: int, ext_ranks: list[int]):
    """Hand simulation of the 2K-2-slot rank sweep.

    ``ext_ranks`` holds each player's 1-based arm claim from the preceding
    orthogonalization. Returns per-player (rank, player count) plus the
    slot-by-slot arm transcript, derived straight from the published rule:
    stay on your claimed arm except during the hop window, count sharing
    flags in the first 2k slots for the rank and everywhere for the total.
    """
    num_slots = 2 * num_arms - 2
    transcript = []
    rank_flags = [0] * len(ext_ranks)
    total_flags = [0] * len(ext_ranks)
    for s in range(1, num_slots + 1):
        arms = []
        for k in ext_ranks:
            if s <= 2 * k or s >= num_arms + k:
                arms.append(k)
            else:
                arms.append(s - k)
        counts = {a: arms.count(a) for a in arms}
        transcript.append(tuple(arms))
        for i, a in enumerate(arms):
            if counts[a] > 1:
                total_flags[i] += 1
                if s <= 2 * ext_ranks[i]:
                    rank_flags[i] += 1
    ranks = [1 + f for f in rank_flags]
    totals = [1 + f for f in total_flags]
    return ranks, totals, transcript


def simulate_bit_upload(value: int, nbits: int):
    """Bit cell transcript: the sender's arm sequence and the decoded value.

    Arm 0 is the leader's listening arm (bit 1), arm 1 means bit 0. The
    leader reconstructs MSB-first from the sharing flags it sees.
    """
    arms = []
    for b in range(nbits):
        bit = (value >> (nbits - 1 - b)) & 1
        arms.append(0 if bit else 1)
    decoded = 0
    for a in arms:
        decoded = (decoded << 1) | (1 if a == 0 else 0)
    return arms, decoded


def _message_bits(active, width, view_lower, view_upper, target):
    """One news bit per active arm (flagged, or a bound differs from the
    view), then for each news arm its reject/accept/least bits followed by
    lower - 1 and upper - 1 in ``width`` bits each, most significant first.
    ``target`` holds ``rejected``/``accepted`` sets, a ``least`` arm (or
    None) and ``lower``/``upper`` lists."""

    def flags(arm):
        return [
            int(arm in target["rejected"]),
            int(arm in target["accepted"]),
            int(arm == target["least"]),
        ]

    news = [
        a
        for a in active
        if any(flags(a))
        or target["lower"][a] != view_lower[a]
        or target["upper"][a] != view_upper[a]
    ]
    bits = [int(a in news) for a in active]
    for a in news:
        bits += flags(a)
        for value in (target["lower"][a] - 1, target["upper"][a] - 1):
            bits += [(value >> (width - 1 - i)) & 1 for i in range(width)]
    return bits


def _read_message(heard, active, width, view_lower, view_upper):
    """Decode heard bits laid out as in ``_message_bits``."""
    state = {
        "rejected": set(),
        "accepted": set(),
        "least": None,
        "lower": list(view_lower),
        "upper": list(view_upper),
    }
    pos = len(active)
    for a, flagged in zip(active, heard):
        if not flagged:
            continue
        rejected, accepted, least = heard[pos : pos + 3]
        pos += 3
        if rejected:
            state["rejected"].add(a)
        if accepted:
            state["accepted"].add(a)
        if least:
            state["least"] = a
        for key in ("lower", "upper"):
            value = 0
            for i in range(width):
                value = 2 * value + heard[pos + i]
            pos += width
            state[key][a] = value + 1
    return state


def simulate_binary_broadcast(
    active: list[int],
    num_players: int,
    view_lower: list[int],
    view_upper: list[int],
    target: dict,
):
    """Hand simulation of the SIC leader's one-round binary broadcast.

    ``target`` is as in ``_message_bits``; bounds use ceil(log2 M) bits. In
    every slot the follower listens alone on the read arm and the leader
    joins it for a 1 bit. Returns the leader's bits, the flags the follower
    hears, and the follower's state decoded from those flags.
    """
    width = max(1, math.ceil(math.log2(num_players)))
    bits = _message_bits(active, width, view_lower, view_upper, target)

    read_arm, elsewhere = 0, 1
    heard = []
    for b in bits:
        leader_arm = read_arm if b else elsewhere
        count = 1 + (1 if leader_arm == read_arm else 0)
        heard.append(1 if count > 1 else 0)
    state = _read_message(heard, active, width, view_lower, view_upper)
    return bits, heard, state


def simulate_dpe_broadcast(num_arms: int, num_players: int, view: dict, target: dict):
    """Hand simulation of the DPE leader's one-round binary broadcast.

    ``view``/``target`` are dicts with keys ``optimal`` (set), ``least``
    (int or None) and ``lower``/``upper`` (lists). The message runs over
    every arm: removals are rejects, additions are accepts, and the least
    bit marks the target's least-favored arm only when it moved. All
    followers listen on arm 0; the leader sits on arm 0 for a 1 bit and on
    arm 1 for a 0 bit, and a follower hears a 1 when arm 0 counts
    ``num_players``. Returns the leader's arm per slot and the state a
    follower holds afterwards.
    """
    width = max(1, math.ceil(math.log2(num_players)))
    arms = list(range(num_arms))
    decision = {
        "rejected": set(view["optimal"]) - set(target["optimal"]),
        "accepted": set(target["optimal"]) - set(view["optimal"]),
        "least": target["least"] if target["least"] != view["least"] else None,
        "lower": target["lower"],
        "upper": target["upper"],
    }
    bits = _message_bits(arms, width, view["lower"], view["upper"], decision)
    leader_arms = [0 if b else 1 for b in bits]
    heard = [
        1 if (num_players - 1) + (a == 0) == num_players else 0 for a in leader_arms
    ]
    got = _read_message(heard, arms, width, view["lower"], view["upper"])
    state = {
        "optimal": (set(view["optimal"]) - got["rejected"]) | got["accepted"],
        "least": view["least"] if got["least"] is None else got["least"],
        "lower": got["lower"],
        "upper": got["upper"],
    }
    return leader_arms, state


def rotation_arm(rank: int, t: int, prefix: list[int]) -> int:
    """Arm the DPE rotation rule gives ``rank`` at slot ``t``.

    ``prefix`` holds the cumulative assignment counts, so M is its last
    entry. Ranks circulate: position (rank + t) mod M, counted from 1, lies
    in the first arm whose cumulative count reaches it.
    """
    return bisect_left(prefix, (rank + t) % prefix[-1] + 1)


@dataclass
class SlotView:
    """One player's view of one slot in ``naive_run``."""

    arm: int
    reward: float
    count: int | None
    shared: bool


def naive_run(make_policy, make_env, spec, sdi, best_value, best_counts, checkpoints):
    """Step every slot of a run the plain way: no plan memo, no blocks.

    ``spec`` is read for num_arms, num_players, means, capacities, horizon
    and seed, with the same ``SeedSequence(seed).spawn(M + 1)`` streams as a
    real run: the first draws the arms, one uniform per arm per slot, and
    player i's public info is ``make_env(rng of stream i + 1)``.
    ``best_value`` and ``best_counts`` (players per arm) give the optimum.
    Returns the fields of a run trace as a dict.
    """
    K, M, T = spec.num_arms, spec.num_players, spec.horizon
    means, caps = list(spec.means), list(spec.capacities)
    streams = np.random.SeedSequence(spec.seed).spawn(M + 1)
    env_rng = np.random.Generator(np.random.PCG64(streams[0]))
    players = [
        make_policy(i, make_env(np.random.Generator(np.random.PCG64(streams[i + 1]))))
        for i in range(M)
    ]
    best = {k: c for k, c in enumerate(best_counts) if c > 0}
    cps = sorted(set(checkpoints))
    regret = 0.0
    cp_regret, mask, phases = [], [], []
    last_phase = None
    for t in range(T):
        arms = [p.next_action(t) for p in players]
        load = {}
        for a in arms:
            load[a] = load.get(a, 0) + 1
        hit = env_rng.random(K) < np.asarray(means)
        for p, a in zip(players, arms):
            c = load[a]
            reward = min(c, caps[a]) * (1.0 if hit[a] else 0.0)
            p.observe(SlotView(a, reward, c if sdi else None, c > 1))
        value = 0.0
        for a, c in load.items():
            value += min(c, caps[a]) * means[a]
        regret += best_value - value
        mask.append(load == best)
        phase = getattr(players[0], "phase", None)
        if phase is not None and phase != last_phase:
            phases.append((t, str(phase)))
            last_phase = phase
        if t + 1 in cps:
            cp_regret.append(regret)
    return {
        "horizon": T,
        "checkpoints": tuple(cps),
        "checkpoint_regret": tuple(cp_regret),
        "final_regret": regret,
        "optimal_mask": np.array(mask, dtype=bool),
        "phase_events": tuple(phases),
    }
