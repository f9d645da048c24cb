"""Leader/follower policy for count (SDI) feedback.

One player becomes the leader after a rally and an orthogonalization over
M arms (``protocol.Orthogonalization``, shared with SIC-SDA). The leader
alone gathers statistics, maintains the empirical optimal assignment,
and occasionally probes weaker arms; followers replay the assignment via a
rotation rule, following the DPE line of work (Wang, Proutière et al.,
AISTATS 2020). Whenever the leader's published state changes it parks on a
busy arm for the first M slots of a round, so followers notice an
impossible sharing count, and then broadcasts the change. The leader's
target is what it already holds (the oracle's assignment and its capacity
bounds); the broadcast carries the difference from the shared view, and
every player, the leader included, applies the same decoded bits.

Extension beyond the paper: the broadcast is the binary message of
``protocol.broadcast_message``, the codec SIC-SDA also uses, instead of
unary steps that move each capacity bound one unit per round. Followers
listen together on arm 0 and read a 1 when its count is M; the leader
joins arm 0 for a 1 bit and sits on arm 1 for a 0 bit. One round carries
the whole change. In a view that puts every player on one arm P, parking
adds nobody to P's count, so the leader instead signals by leaving P at
round slot 0. A follower that notices the park keeps playing its planned
arms instead of idling on the park arm.

Followers ride their rounds as engine blocks; the leader is stepped. In a
round of an unchanged view, a follower's rounds to come are the plan
table's, so it states them (``schedule``), with the count range its round
test allows at each slot, and rides until the leader parks, the engine
cuts the ride, or the horizon. A ride's outcomes only advance its slot
counter (``observe_block``). The leader's probe coins and news change
every round, so it answers None and steps every slot. Its update after a
round re-derives only the arms that round played (``_leader_update``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import gcd, inf

from .engine import _SPAN, Observation, PublicEnvInfo
from .model import Feedback, oracle
from .protocol import (
    LeaderDecision,
    Orthogonalization,
    ProtocolCorruptionError,
    bound_bits,
    broadcast_message,
    payload_bits,
    read_broadcast,
)
from .stats import (
    CapacityBounds,
    PlayerStats,
    closed_bracket_holds,
    confidence_radius,
    klucb_arms_at_least,
    klucb_budget,
    update_capacity_bounds,
)


class UnsupportedFeedbackError(ValueError):
    """The policy cannot operate under the environment's feedback mode."""


@dataclass
class SharedInfo:
    """State every player keeps in lockstep with the leader.

    The optimal set, its least-favored member, and the per-arm capacity
    bracket; together they determine the assignment everyone replays.
    """

    optimal_set: set[int] = field(default_factory=set)
    least_favored: int | None = None
    cap_lower: list[int] = field(default_factory=list)
    cap_upper: list[int] = field(default_factory=list)


def recover_profile(info: SharedInfo, num_players: int) -> list[int]:
    """Rebuild the assignment counts implied by a SharedInfo.

    Arms in the optimal set take their capacity lower bound; the
    least-favored arm absorbs the remaining players.
    """
    least = info.least_favored
    if least is None or least not in info.optimal_set:
        raise ProtocolCorruptionError("least-favored arm missing from optimal set")
    counts = [0] * len(info.cap_lower)
    taken = 0
    for k in info.optimal_set:
        if k != least:
            counts[k] = info.cap_lower[k]
            taken += counts[k]
    remainder = num_players - taken
    if remainder <= 0:
        raise ProtocolCorruptionError(
            f"recovered assignment leaves {remainder} players for the "
            "least-favored arm"
        )
    counts[least] = remainder
    return counts


# Internal mode tags for the per-player state machine.
_RALLY = "rally"
_ORTHO = "orthogonalize"
_WARMUP = "warmup"
_PARK = "bootstrap-park"
_BROADCAST = "comm-broadcast"
_ROUND = "explore-round"


class DpeSdiPolicy:
    """Per-player state machine; requires count (SDI) feedback.

    Only ``next_action``, ``observe``, ``schedule`` and ``observe_block``
    touch the engine. Everything else is derived from the player's own
    observations, so instances share nothing.

    Every stretch but orthogonalization (the rally, the warm-up sweep, the
    bootstrap park, each broadcast and each round) is planned whole when it
    starts: the arm of each of its slots, its first slot and its length. In
    a stretch, ``next_action`` is one list lookup; ``observe`` books what the
    mode observes, advances the slot counter and, at the length, calls the
    one handler that begins the next stretch. A round's plan comes from a
    table built once per view, into which the leader draws its probe coins
    when the round starts, and a follower compares each count with the
    planned slot's limit. After a detection it keeps its planned arms and
    ends the round after its first M slots, as the parked leader does. A
    broadcast is K slots long until the news mask is in, which sizes the
    rest; a follower's plan covers the longest message. No plan is written
    after its stretch starts.
    """

    def __init__(
        self, player_id: int, env: PublicEnvInfo, *, delta: float | None = None
    ) -> None:
        if env.feedback is not Feedback.SDI:
            raise UnsupportedFeedbackError(
                "this policy needs sharing counts (SDI feedback)"
            )
        self.num_arms = env.num_arms
        self.horizon = env.horizon
        self.rng = env.rng
        self.delta = 2.0 / env.horizon if delta is None else delta

        self.phase = "init"
        self.num_players: int | None = None
        self.rank: int | None = None
        self._leader = False  # rank == 0, fixed with the rank
        self._ortho: Orthogonalization | None = None

        # The current stretch: its mode, its arm per slot, its first slot,
        # the slots it has played and its length. The rally is one slot.
        self._mode = _RALLY
        self._plan: list[int] = [0]
        self._start = 0
        self._slot = 0
        self._len = 1
        self._limits: list[int] | None = None  # a follower's round: count limits
        self._pending = False  # a broadcast follows: leader's news, or a park seen
        self._nbits = 0
        self._message: list[int] = []  # leader: bits to send; follower: heard

        # Shared (follower-synchronized) state; populated by the bootstrap.
        # The plan table, united-exploration arms included, is a function of
        # the view and is rebuilt only after the view changes.
        self.view = SharedInfo()
        self._view_changed = True
        self._single_arm = False  # the view puts every player on one arm
        # _plans[(rank + t0) % M] is the plan of a round that starts at slot
        # t0: the arm per round slot, and each slot's count limit, above which
        # the leader parked (None in a single-arm view). Shared, never written.
        self._plans: list[tuple[list[int], list[int] | None]] = []

        # Leader-only state.
        self.stats: PlayerStats | None = None
        self.bounds: CapacityBounds | None = None
        self._bracket_inputs: list[tuple[int, int] | None] = []
        # Per arm, for closed brackets: [ue_count, capacity, nu_hat, united
        # radius, least and greatest mu_hat at which the bracket was kept].
        self._united: list[list | None] = []
        self._mu: list[float] = []  # per arm, stats.mu_hat as of the last update
        self._order: list[int] = []  # arms by (-mu, k) at the last oracle call
        self._oracle_caps: list[int] | None = None
        self._opt: tuple[tuple[int, ...], int] | None = None  # counts, least
        self._opt_set: set[int] = set()  # arms with a positive count in _opt
        self._outside: list[int] = []  # the other arms, which the leader may probe
        self._explore_set: list[int] = []
        self._park_arm = 0

    # -- helpers ----------------------------------------------------------

    def _plan_round(self) -> None:
        """Rebuild the plan table from the view; raises on a corrupt view."""
        num_players = self.num_players
        profile = recover_profile(self.view, num_players)
        # Rank r plays rotation[(r + t) % M] at slot t: every slot realizes
        # the profile, and over M slots each rank serves each arm its share.
        rotation = [arm for arm, c in enumerate(profile) for _ in range(c)]
        limits = [profile[arm] for arm in rotation]
        ue_arms = [
            k
            for k in sorted(self.view.optimal_set)
            if self.view.cap_lower[k] != self.view.cap_upper[k]
        ]
        self._single_arm = len(self.view.optimal_set) == 1
        # Nobody else can exceed the plan's count, nor M in a rally.
        ue_limits = [num_players] * len(ue_arms)
        self._plans = [
            (
                rotation[b:] + rotation[:b] + ue_arms,
                None if self._single_arm else limits[b:] + limits[:b] + ue_limits,
            )
            for b in range(num_players)
        ]
        self._view_changed = False

    def _begin(self, mode: str, t0: int, plan: list[int]) -> None:
        """Start a stretch of ``mode`` at slot ``t0`` that plays ``plan``."""
        self._mode = mode
        self._plan = plan
        self._start = t0
        self._slot = 0
        self._len = len(plan)

    def _begin_round(self, t0: int) -> None:
        """Start a round at slot ``t0``: plan the arm of each of its slots.

        Round slot s < M plays the rotation at slot t0 + s; the united
        exploration arms follow. The leader draws its probe coins here, in
        slot order, exactly as stepping the slots would draw them: the view
        and the probe set cannot change within a round.
        """
        if self._view_changed:
            self._plan_round()
        num_players = self.num_players
        if not self._leader:
            self.phase = "explore"
            plan, self._limits = self._plans[(self.rank + t0) % num_players]
        elif self._pending:
            self.phase = "comm"
            self._park_on_best(self.view.optimal_set)
            plan = [self._park_arm] * num_players
            if self._single_arm:
                # Parking on P adds nobody; leaving it signals.
                plan[0] = (self._park_arm + 1) % self.num_arms
        else:
            self.phase = "explore"
            plan = self._plans[t0 % num_players][0]
            probes = self._explore_set
            if probes:
                plan = plan[:]
                least, rng = self.view.least_favored, self.rng
                # No coin for a slot past the horizon, which is never played.
                for s in range(min(num_players, self.horizon - t0)):
                    if (
                        plan[s] == least
                        # Not at slot 0 of a single-arm view, where a probe
                        # would look like the park signal to followers.
                        and (s or not self._single_arm or num_players == 1)
                        and rng.random() < 0.5
                    ):
                        plan[s] = probes[int(rng.integers(len(probes)))]
        self._begin(_ROUND, t0, plan)

    def _park_on_best(self, arms) -> None:
        """Leader: park on the best empirical mean in ``arms``, lower index on ties."""
        mu = self._mu
        self._park_arm = max(arms, key=lambda k: (mu[k], -k))

    def _begin_broadcast(self, t0: int) -> None:
        """Start a broadcast at slot ``t0``: followers listen on arm 0, and
        the leader joins them for a 1 bit and sits on arm 1 for a 0 bit."""
        self.phase = "comm"
        self._limits = None
        if self._leader:
            self._message = self._leader_message()
            plan = [1 - bit for bit in self._message]
        else:
            self._message = []
            longest = self.num_arms + payload_bits([1] * self.num_arms, self._nbits)
            plan = [0] * longest
        self._begin(_BROADCAST, t0, plan)
        self._len = self.num_arms  # the news mask goes first

    def _leader_message(self) -> list[int]:
        """Leader: the bits that move the view to its assignment and bounds."""
        view, least, bounds = self.view, self._opt[1], self.bounds
        decision = LeaderDecision(
            accepted=self._opt_set - view.optimal_set,
            rejected=view.optimal_set - self._opt_set,
            least_favored=least if least != view.least_favored else None,
        )
        return broadcast_message(
            decision,
            range(self.num_arms),
            view.cap_lower,
            view.cap_upper,
            bounds.lower,
            bounds.upper,
            self._nbits,
        )

    def _apply(self, bits: list[int]) -> None:
        """Decode a broadcast into the view; every player runs this."""
        decision, bounds = read_broadcast(bits, range(self.num_arms), self._nbits)
        view = self.view
        if decision.rejected - view.optimal_set:
            raise ProtocolCorruptionError("removal signal for an absent arm")
        if decision.accepted & view.optimal_set:
            raise ProtocolCorruptionError("addition signal for a present arm")
        view.optimal_set -= decision.rejected
        view.optimal_set |= decision.accepted
        if decision.least_favored is not None:
            view.least_favored = decision.least_favored
        for arm, (lower, upper) in bounds.items():
            view.cap_lower[arm] = lower
            view.cap_upper[arm] = upper
        self._pending = False
        self._view_changed = True

    def _leader_update(self) -> None:
        """Refresh bounds, the optimal assignment, the probe set and ``_pending``.

        Only the arms the stretch just played can have new samples: every arm
        after the warm-up sweep, and the arms of its plan after a round (a
        parked round, which samples nothing, is followed by a broadcast, not
        by an update). So only those arms are re-derived: their means, their
        bracket checks, and the order test on the adjacent pairs of
        ``_order`` they sit in. Skipping the others is exact. An arm's mean
        and bracket inputs move only with its samples, and its bounds only
        with its own bracket update, which its last check already made or
        proved inert. Every other pair of ``_order`` was in order at the last
        test, and neither of its means has moved since. The probe set is
        tested afresh on every arm outside the assignment: its threshold, the
        least-favored arm's mean, and its budget move with almost every round.
        """
        stats, bounds, mu = self.stats, self.bounds, self._mu
        assert stats is not None and bounds is not None
        ie_sum, ie_count, ue_count = stats.ie_sum, stats.ie_count, stats.ue_count
        played = sorted(set(self._plan))
        # A bracket update is a function of the arm's sums and counts, and the
        # sums move only with the counts; repeating one changes nothing.
        seen, united = self._bracket_inputs, self._united
        for k in played:
            # The same float as stats.mu_hat: warm-up sampled every arm.
            m = mu[k] = ie_sum[k] / ie_count[k]
            n_ue = ue_count[k]
            if n_ue == 0:
                continue
            capacity = bounds.lower[k]
            if capacity == bounds.upper[k]:
                # The update's radius adds the individual radius to the united
                # one: if the united one alone keeps [c, c], so does the update.
                # That test holds on an interval of mu_hat, so it holds between
                # two values where it held.
                kept = united[k]
                if kept is None or kept[0] != n_ue or kept[1] != capacity:
                    radius = confidence_radius(n_ue, self.delta)
                    kept = united[k] = [n_ue, capacity, stats.nu_hat(k), radius, inf, -inf]
                if kept[4] <= m <= kept[5]:
                    continue
                if closed_bracket_holds(m, kept[2], kept[3], capacity):
                    kept[4] = min(kept[4], m)
                    kept[5] = max(kept[5], m)
                    continue
            inputs = (ie_count[k], n_ue)
            if seen[k] != inputs:
                seen[k] = inputs
                update_capacity_bounds(stats, k, bounds, self.delta)
        # The oracle's profile and least-favored arm depend only on the arm
        # order by (-mu, k) and on the capacities: reuse them while both hold.
        if bounds.lower != self._oracle_caps or self._out_of_order(played):
            opt = oracle(mu, bounds.lower, self.num_players)
            self._order = sorted(range(self.num_arms), key=lambda k: (-mu[k], k))
            self._oracle_caps = list(bounds.lower)
            counts = opt.profile.counts
            self._opt = counts, opt.least_favored
            self._opt_set = {k for k, c in enumerate(counts) if c > 0}
            self._outside = [k for k, c in enumerate(counts) if c == 0]
        budget = klucb_budget(self._start + self._len)  # the next stretch's first slot
        least = self._opt[1]
        self._explore_set = klucb_arms_at_least(
            mu, ie_count, self._outside, budget, mu[least]
        )
        view = self.view
        self._pending = (
            view.optimal_set != self._opt_set
            or view.least_favored != least
            or view.cap_lower != bounds.lower
            or view.cap_upper != bounds.upper
        )
        if self._pending and self.num_players == 1:
            # Nobody to inform: a broadcast that takes no slot.
            self._apply(self._leader_message())

    def _out_of_order(self, arms) -> bool:
        """Leader: whether an arm of ``arms`` left its place in ``_order`` by (-mu, k)."""
        mu, order = self._mu, self._order
        last = len(order) - 1
        for k in arms:
            i, m = order.index(k), mu[k]
            if i:
                j = order[i - 1]  # must stay ahead of k
                if mu[j] < m or (mu[j] == m and j > k):
                    return True
            if i < last:
                j = order[i + 1]  # must stay behind k
                if mu[j] > m or (mu[j] == m and j < k):
                    return True
        return False

    # -- engine interface --------------------------------------------------

    def schedule(self, t: int) -> tuple[int, tuple[int, ...], tuple] | None:
        """A follower's rounds to come as one ride while its view holds, or None.

        In a round of an unchanged view (no park seen), the rounds that
        follow play the table's plans, and rounds of length L come back to
        the same plan every L·M/gcd(L, M) slots. It states that cycle, or
        when it is longer, once, only the rounds that cover the next
        ``_SPAN`` slots, the most that one ride takes. Each slot's count
        range is ``observe``'s own test: (1, its limit), or in a single-arm
        view (M, M) at round slot 0 and (1, M) elsewhere. The leader and
        every other stretch answer None.
        """
        if self._leader or self._mode != _ROUND or self._pending:
            return None
        num_players, length, start, s = self.num_players, self._len, self._start, self._slot
        cycle = num_players // gcd(length, num_players)  # rounds until the plans repeat
        rounds = min(cycle, -(-(s + _SPAN) // length))
        arms, ranges = [], []
        for r in range(rounds):
            plan, limits = self._plans[(self.rank + start + r * length) % num_players]
            arms += plan
            if limits is None:
                ranges += [(num_players, num_players)] + [(1, num_players)] * (length - 1)
            else:
                ranges += [(1, limit) for limit in limits]
        if rounds < cycle:
            return len(arms) - s, tuple(arms[s:]), tuple(ranges[s:])
        return self.horizon - t, tuple(arms[s:] + arms[:s]), tuple(ranges[s:] + ranges[:s])

    def observe_block(self, outcomes: Sequence[tuple[Observation, int, int]]) -> None:
        """A follower's ride: advance by its slots, one outcome each.

        The leader never states a block, so no block of everyone is taken
        and each of a follower's outcomes is one slot of a ride.
        """
        rounds, self._slot = divmod(self._slot + len(outcomes), self._len)
        if rounds:
            self._start += rounds * self._len
            self._plan, self._limits = self._plans[(self.rank + self._start) % self.num_players]

    def next_action(self, t: int) -> int:
        if self._mode == _ORTHO:
            self._start = t + 1  # where the warm-up starts, if this slot ends it
            return self._ortho.next_arm()
        return self._plan[self._slot]

    def observe(self, obs: Observation) -> None:
        s = self._slot
        limits = self._limits
        if limits is not None:
            # A follower in a round: only a parked leader raises a count.
            if obs.count > limits[s]:
                self._detect()
        elif self._mode == _ROUND:
            if not self._leader:
                if s == 0 and obs.count < self.num_players:
                    # A single-arm view: the leader left the arm to signal.
                    self._detect()
            elif s >= self.num_players:
                self.stats.add_united(obs.arm, obs.reward)
            elif not self._pending and obs.count <= self.bounds.lower[obs.arm]:
                # Within the known capacity the per-load draw is exact.
                self.stats.add_individual(obs.arm, obs.reward / obs.count)
        elif self._mode == _BROADCAST:
            if not self._leader:
                self._message.append(int(obs.count == self.num_players))
            if s + 1 == self.num_arms:
                # Every follower now holds the news mask, which sizes the rest.
                self._len += payload_bits(self._message[: self.num_arms], self._nbits)
        elif self._mode == _ORTHO:
            if self._ortho.observe(obs.shared):
                self._start_warmup()
            return
        elif self._mode == _WARMUP:
            if self._leader:
                if obs.count != 1:
                    raise ProtocolCorruptionError("warm-up sweep arm was not exclusive")
                self.stats.add_individual(obs.arm, obs.reward)
        elif self._mode == _RALLY:
            self.num_players = obs.count
        self._slot = s = s + 1
        if s == self._len:
            self._end_stretch()

    # -- stretch transitions -------------------------------------------------

    def _detect(self) -> None:
        """Follower: the leader parked; keep the plan, broadcast after M slots."""
        self._pending = True
        self._len = self.num_players

    def _end_stretch(self) -> None:
        """Begin the stretch that follows the one just played."""
        t0 = self._start + self._len
        mode = self._mode
        if mode == _RALLY:
            self._mode = _ORTHO
            self._ortho = Orthogonalization(self.num_players, self.rng)
            if self.num_players >= self.num_arms:
                raise ProtocolCorruptionError(
                    "rally counted as many players as arms; model requires M < K"
                )
            return
        if mode == _BROADCAST:
            # The leader applies its own bits, followers the bits they heard.
            self._apply(self._message)
        elif mode == _PARK or self._pending:
            self._begin_broadcast(t0)
            return
        elif self._leader:
            self._leader_update()
        if mode == _WARMUP and self.num_players > 1:
            # The bootstrap park: M slots, the leader on its best arm and each
            # follower on its rank's arm; the first broadcast follows.
            if self._leader:
                self._park_on_best(range(self.num_arms))
            arm = self._park_arm if self._leader else self.rank
            self._begin(_PARK, t0, [arm] * self.num_players)
            self.phase = "comm"
        else:
            self._begin_round(t0)

    def _start_warmup(self) -> None:
        rank, num_arms = self._ortho.claim, self.num_arms
        self.rank = rank
        self._leader = rank == 0
        self._begin(_WARMUP, self._start, [(s + rank) % num_arms for s in range(num_arms)])
        self.view = SharedInfo(
            set(), None, [1] * num_arms, [self.num_players] * num_arms
        )
        self._view_changed = True
        self._nbits = bound_bits(self.num_players)
        if self._leader:
            self.stats = PlayerStats(self.num_arms)
            self.bounds = CapacityBounds(self.num_arms, self.num_players)
            self._bracket_inputs = [None] * self.num_arms
            self._united = [None] * self.num_arms
            self._mu = [0.0] * self.num_arms
