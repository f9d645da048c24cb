"""Leader/follower policy for count (SDI) feedback.

One player becomes the leader after a rally-and-orthogonalize start. The
leader alone gathers statistics, maintains the empirical optimal assignment,
and occasionally probes weaker arms; followers replay the assignment via a
rotation rule. Whenever the leader's published state changes it runs a
six-step broadcast: it first parks on a busy arm so followers notice an
impossible sharing count, then flags per-arm updates by joining the
followers' synchronized sweep, one step per field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import Observation, PublicEnvInfo
from .model import Feedback, oracle
from .stats import CapacityBounds, PlayerStats, klucb_at_least, update_capacity_bounds


class UnsupportedFeedbackError(ValueError):
    """The policy cannot operate under the environment's feedback mode."""


class ProtocolCorruptionError(RuntimeError):
    """Players' synchronized state diverged; signals a desync bug."""


NUM_COMM_STEPS = 5  # steps 2..6 of the broadcast, one field each


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

    def copy(self) -> "SharedInfo":
        return SharedInfo(
            set(self.optimal_set),
            self.least_favored,
            list(self.cap_lower),
            list(self.cap_upper),
        )


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


def rotation_arm(rank: int, t: int, prefix: list[int]) -> int:
    """Arm assigned to ``rank`` at slot ``t`` by the rotation rule.

    ``prefix`` holds cumulative assignment counts; ranks circulate so that
    each slot realizes the assignment exactly and over M consecutive slots
    every player serves every arm its full share.
    """
    num_players = prefix[-1]
    c = (rank + t) % num_players + 1
    for arm, total in enumerate(prefix):
        if total >= c:
            return arm
    raise ProtocolCorruptionError("rotation rank exceeded assignment total")


def comm_send_arms(
    new: SharedInfo,
    view: SharedInfo,
    park_arm: int,
    num_players: int,
    num_arms: int,
) -> list[int]:
    """Leader's full arm schedule for one broadcast round.

    ``num_players`` parking slots followed by five K-slot steps; at step
    sub-slot k the leader joins the followers on arm k iff that step's
    condition holds, else it sits on an arm the followers are not sweeping.
    Capacity bounds move at most one unit per round; the leader re-runs
    rounds until its view converges.
    """
    arms = [park_arm] * num_players
    for step in range(NUM_COMM_STEPS):
        for k in range(num_arms):
            if step == 0:
                signal = k in view.optimal_set and k not in new.optimal_set
            elif step == 1:
                signal = k in new.optimal_set and k not in view.optimal_set
            elif step == 2:
                signal = k == new.least_favored
            elif step == 3:
                signal = new.cap_lower[k] > view.cap_lower[k]
            else:
                signal = new.cap_upper[k] < view.cap_upper[k]
            arms.append(k if signal else (k + 1) % num_players)
    return arms


def comm_apply(view: SharedInfo, step: int, arm: int) -> None:
    """Apply one detected broadcast signal to a player's shared state."""
    if step == 0:
        if arm not in view.optimal_set:
            raise ProtocolCorruptionError(f"removal signal for absent arm {arm}")
        view.optimal_set.discard(arm)
    elif step == 1:
        if arm in view.optimal_set:
            raise ProtocolCorruptionError(f"addition signal for present arm {arm}")
        view.optimal_set.add(arm)
    elif step == 2:
        view.least_favored = arm
    elif step == 3:
        view.cap_lower[arm] += 1
    elif step == 4:
        view.cap_upper[arm] -= 1
        if view.cap_upper[arm] < 1:
            raise ProtocolCorruptionError(f"capacity upper bound of arm {arm} below 1")
    else:
        raise ValueError(f"unknown communication step {step}")


# Internal mode tags for the per-player state machine.
_RALLY = "rally"
_ORTHO = "orthogonalize"
_WARMUP = "warmup"
_PARK = "bootstrap-park"
_STEPS = "comm-steps"
_ROUND = "explore-round"


class DpeSdiPolicy:
    """Per-player state machine; requires count (SDI) feedback.

    Only ``next_action``/``observe`` touch the engine. Everything else is
    derived from the player's own observations, so instances share nothing.
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
        self._mode = _RALLY
        self._t = 0
        self.num_players: int | None = None
        self.rank: int | None = None
        self._leader = False  # rank == 0, fixed with the rank

        # Orthogonalization bookkeeping.
        self._ortho_slot = 0
        self._saw_sharing = False
        self._claim_arm = 0

        self._warm_slot = 0

        # Shared (follower-synchronized) state; populated by the bootstrap.
        # The round plan (profile, rotation table, united-exploration arms) is
        # a function of the view and is rebuilt only after the view changes.
        self.view = SharedInfo()
        self._view_changed = True
        self._round_slot = 0
        self._profile: list[int] = []
        # _rotation[(rank + t) % M] == rotation_arm(rank, t, prefix of _profile)
        self._rotation: list[int] = []
        self._ue_arms: list[int] = []
        self._detected = False
        self._idle_arm = 0
        self._comm_slot = 0
        self._least_signals = 0

        # Leader-only state.
        self.stats: PlayerStats | None = None
        self.bounds: CapacityBounds | None = None
        self._candidate: SharedInfo | None = None
        self._bracket_inputs: list[tuple[int, int] | None] = []
        self._order: list[int] = []  # arms by (-mu, k) at the last oracle call
        self._oracle_caps: list[int] | None = None
        self._opt: tuple[tuple[int, ...], int] | None = None  # counts, least
        self._explore_set: list[int] = []
        self._pending = False
        self._park_arm = 0
        self._comm_arms: list[int] = []

    # -- helpers ----------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.rank == 0

    def _plan_round(self) -> None:
        """Rebuild the round plan from the view; raises on a corrupt view."""
        self._profile = recover_profile(self.view, self.num_players)
        self._rotation = [arm for arm, c in enumerate(self._profile) for _ in range(c)]
        self._ue_arms = [
            k
            for k in sorted(self.view.optimal_set)
            if self.view.cap_lower[k] != self.view.cap_upper[k]
        ]
        self._view_changed = False

    def _begin_round(self) -> None:
        self._mode = _ROUND
        self._round_slot = 0
        self._detected = False
        if self._view_changed:
            self._plan_round()
        if self._leader and self._pending:
            self.phase = "comm"
            self._park_arm = max(
                self.view.optimal_set, key=lambda k: (self.stats.mu_hat(k), -k)
            )
        else:
            self.phase = "explore"

    def _begin_steps(self) -> None:
        self._mode = _STEPS
        self._comm_slot = 0
        self._least_signals = 0
        self.phase = "comm"
        if self._leader:
            assert self._candidate is not None
            self._comm_arms = comm_send_arms(
                self._candidate,
                self.view,
                self._park_arm,
                self.num_players,
                self.num_arms,
            )[self.num_players :]

    def _finish_steps(self) -> None:
        if self._leader:
            # Mirror what followers applied from our signals.
            cand = self._candidate
            assert cand is not None
            self.view.optimal_set = set(cand.optimal_set)
            self.view.least_favored = cand.least_favored
            for k in range(self.num_arms):
                if cand.cap_lower[k] > self.view.cap_lower[k]:
                    self.view.cap_lower[k] += 1
                if cand.cap_upper[k] < self.view.cap_upper[k]:
                    self.view.cap_upper[k] -= 1
            self._pending = self.view != cand
            self._view_changed = True
        else:
            if self._least_signals != 1:
                raise ProtocolCorruptionError(
                    f"saw {self._least_signals} least-favored signals in one round"
                )
        self._begin_round()

    def _leader_update(self) -> None:
        """Refresh bounds, the optimal assignment, and the probe set."""
        stats, bounds = self.stats, self.bounds
        assert stats is not None and bounds is not None
        # A bracket update is a function of the arm's sums and counts, and the
        # sums move only with the counts; repeating one changes nothing.
        seen = self._bracket_inputs
        for k in range(self.num_arms):
            if stats.ue_count[k] > 0:
                inputs = (stats.ie_count[k], stats.ue_count[k])
                if seen[k] != inputs:
                    seen[k] = inputs
                    update_capacity_bounds(stats, k, bounds, self.delta)
        mu = [stats.mu_hat(k) for k in range(self.num_arms)]
        # The oracle's profile and least-favored arm depend only on the arm
        # order by (-mu, k) and on the capacities: reuse them while both hold.
        order = self._order
        if bounds.lower != self._oracle_caps or any(
            mu[j] > mu[k] or (mu[j] == mu[k] and j < k)
            for k, j in zip(order, order[1:])
        ):
            opt = oracle(mu, bounds.lower, self.num_players)
            self._order = sorted(range(self.num_arms), key=lambda k: (-mu[k], k))
            self._oracle_caps = list(bounds.lower)
            previous = self._opt
            self._opt = opt.profile.counts, opt.least_favored
            profile_changed = self._opt != previous
        else:
            profile_changed = False
        counts, least = self._opt
        self._explore_set = [
            k
            for k in range(self.num_arms)
            if counts[k] == 0
            and klucb_at_least(mu[k], stats.ie_count[k], self._t + 1, mu[least])
        ]
        cand = self._candidate
        if (
            profile_changed
            or cand.cap_lower != bounds.lower
            or cand.cap_upper != bounds.upper
        ):
            self._candidate = SharedInfo(
                {k for k, c in enumerate(counts) if c > 0},
                least,
                list(bounds.lower),
                list(bounds.upper),
            )
        if self.num_players == 1:
            # Nobody to inform; adopt updates directly.
            self.view = self._candidate.copy()
            self._view_changed = True
            self._pending = False
        else:
            self._pending = self.view != self._candidate

    # -- engine interface --------------------------------------------------

    def next_action(self, t: int) -> int:
        self._t = t
        mode = self._mode
        if mode == _ROUND:
            s = self._round_slot
            if s < self.num_players:
                if self._leader:
                    if self._pending:
                        return self._park_arm
                    target = self._rotation[t % self.num_players]
                    if (
                        target == self.view.least_favored
                        and self._explore_set
                        and self.rng.random() < 0.5
                    ):
                        probes = self._explore_set
                        return probes[int(self.rng.integers(len(probes)))]
                    return target
                if self._detected:
                    return self._idle_arm
                return self._rotation[(self.rank + t) % self.num_players]
            return self._ue_arms[s - self.num_players]
        if mode == _STEPS:
            if self._leader:
                return self._comm_arms[self._comm_slot]
            return self._comm_slot % self.num_arms
        if mode == _RALLY:
            return 0
        if mode == _ORTHO:
            s = self._ortho_slot
            if s == 0:
                if self.rank is None:
                    self._claim_arm = int(self.rng.integers(self.num_players))
                    return self._claim_arm
                return self.rank
            if self.rank is None:
                return self.num_players  # spare arm while unranked
            if s == self.rank + 1:
                return self.num_players
            return self.rank
        if mode == _WARMUP:
            return (self._warm_slot + self.rank) % self.num_arms
        if mode == _PARK:
            return self._park_arm if self._leader else self.rank
        raise RuntimeError(f"unknown mode {mode!r}")

    def observe(self, obs: Observation) -> None:
        mode = self._mode
        if mode == _ROUND:
            self._observe_round(obs)
        elif mode == _STEPS:
            self._observe_steps(obs)
        elif mode == _RALLY:
            self._observe_rally(obs)
        elif mode == _ORTHO:
            self._observe_ortho(obs)
        elif mode == _WARMUP:
            self._observe_warmup(obs)
        else:  # _PARK
            self._comm_slot += 1
            if self._comm_slot == self.num_players:
                self._begin_steps()

    # -- per-mode observation handlers --------------------------------------

    def _observe_round(self, obs: Observation) -> None:
        s = self._round_slot
        leader = self._leader
        if s < self.num_players:
            if leader:
                if obs.count <= self.bounds.lower[obs.arm] and not self._pending:
                    # Within the known capacity the per-load draw is exact.
                    self.stats.add_individual(obs.arm, obs.reward / obs.count)
            elif not self._detected and obs.count > self._profile[obs.arm]:
                self._detected = True
                self._idle_arm = obs.arm
        elif leader:
            self.stats.add_united(obs.arm, obs.reward)
        self._round_slot = s + 1
        if self._round_slot == self.num_players:
            if leader and self._pending:
                self._begin_steps()
            elif self._detected:
                self._begin_steps()
            elif not self._ue_arms:
                self._end_round()
        elif self._round_slot == self.num_players + len(self._ue_arms):
            self._end_round()

    def _end_round(self) -> None:
        if self._leader:
            self._leader_update()
        self._begin_round()

    def _observe_steps(self, obs: Observation) -> None:
        s = self._comm_slot
        if not self._leader and obs.count == self.num_players:
            step, arm = divmod(s, self.num_arms)
            if step == 2:
                self._least_signals += 1
                if self._least_signals > 1:
                    raise ProtocolCorruptionError(
                        "two least-favored signals in one broadcast round"
                    )
            comm_apply(self.view, step, arm)
            self._view_changed = True
        self._comm_slot = s + 1
        if self._comm_slot == NUM_COMM_STEPS * self.num_arms:
            self._finish_steps()

    def _observe_rally(self, obs: Observation) -> None:
        self.num_players = obs.count
        self._mode = _ORTHO
        self._ortho_slot = 0
        self._saw_sharing = False
        if self.num_players >= self.num_arms:
            raise ProtocolCorruptionError(
                "rally counted as many players as arms; model requires M < K"
            )

    def _observe_ortho(self, obs: Observation) -> None:
        s = self._ortho_slot
        if s == 0:
            if self.rank is None and obs.count == 1:
                self.rank = self._claim_arm
                self._leader = self.rank == 0
        else:
            if obs.shared:
                self._saw_sharing = True
        self._ortho_slot = s + 1
        if self._ortho_slot == self.num_players + 1:
            if not self._saw_sharing:
                if self.rank is None:
                    raise ProtocolCorruptionError(
                        "orthogonalization ended while a player is unranked"
                    )
                self._start_warmup()
            else:
                self._ortho_slot = 0
                self._saw_sharing = False

    def _start_warmup(self) -> None:
        self._mode = _WARMUP
        self._warm_slot = 0
        self.view = SharedInfo(
            set(), None, [1] * self.num_arms, [self.num_players] * self.num_arms
        )
        self._view_changed = True
        if self._leader:
            self.stats = PlayerStats(self.num_arms)
            self.bounds = CapacityBounds(self.num_arms, self.num_players)
            self._bracket_inputs = [None] * self.num_arms

    def _observe_warmup(self, obs: Observation) -> None:
        if self._leader:
            if obs.count != 1:
                raise ProtocolCorruptionError("warm-up sweep arm was not exclusive")
            self.stats.add_individual(obs.arm, obs.reward)
        self._warm_slot += 1
        if self._warm_slot == self.num_arms:
            if self.num_players == 1:
                self._leader_update()
                self._begin_round()
                return
            if self._leader:
                self._leader_update()
                self._park_arm = max(
                    range(self.num_arms), key=lambda k: (self.stats.mu_hat(k), -k)
                )
            self._mode = _PARK
            self._comm_slot = 0
            self.phase = "comm"
