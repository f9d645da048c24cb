"""Heuristic comparison policies and scripted dummies for tests.

Both heuristics are fully decentralized: they see only their own
observations. Each starts with one deterministic round-robin sweep over all
arms so every empirical statistic is defined, then commits to a greedy
choice every slot.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heapify, heapreplace

from .engine import Observation, PublicEnvInfo


def _warmup_arm(player_id: int, t: int, num_arms: int) -> int:
    return (player_id + t + 1) % num_arms


class HighestRewardPolicy:
    """Play the arm with the highest own empirical total-reward mean.

    After warm-up it states engine blocks, each a cycle of one arm: while it
    plays its argmax b, only b's mean moves, and it is lowest if b pays
    nothing, so b stays the argmax for as long as S_b / (N_b + j) beats
    every other mean.
    """

    def __init__(self, player_id: int, env: PublicEnvInfo) -> None:
        self.player_id = player_id
        self.num_arms = env.num_arms
        self.horizon = env.horizon
        self.phase = "explore"
        self._sums = [0.0] * env.num_arms
        self._pulls = [0] * env.num_arms
        self._means = [0.0] * env.num_arms
        self._best = 0

    def next_action(self, t: int) -> int:
        if t < self.num_arms:
            return _warmup_arm(self.player_id, t, self.num_arms)
        return self._best

    def schedule(self, t: int) -> tuple[int, tuple[int]] | None:
        """None in warm-up; then (n, (b,)): any j <= n unpaid pulls keep the argmax b."""
        if t < self.num_arms:
            return None
        b = self._best
        rest = max(self._means[:b] + self._means[b + 1 :], default=0.0)
        if rest > 0:
            # S_b / (N_b + n) > rest holds for n < S_b / rest - N_b. One
            # slot less keeps it strict, since ties go to the lower index;
            # one more keeps it strict after rounding in the division.
            return max(int(self._sums[b] / rest) - self._pulls[b] - 2, 1), (b,)
        # No other arm has paid: b keeps the strictly highest mean, or b is
        # arm 0 and every mean is 0, for the rest of the run.
        return self.horizon - t, (b,)

    def observe(self, obs: Observation) -> None:
        self._add(obs.arm, obs.reward, 1)

    def observe_block(self, outcomes: Sequence[tuple[Observation, int, int]]) -> None:
        # Rewards are integer-valued, so each sum equals sequential additions.
        for obs, hits, slots in outcomes:
            self._add(obs.arm, obs.reward * hits, slots)

    def _add(self, k: int, reward: float, pulls: int) -> None:
        self._pulls[k] += pulls
        self._sums[k] += reward
        self._means[k] = self._sums[k] / self._pulls[k]
        # index() finds the first of equal means: ties go to the lower index.
        self._best = self._means.index(max(self._means))


class IdlestArmPolicy:
    """Play the arm this player has seen shared least often, by rate.

    A heap of (rate, arm) holds one entry per arm, so its top is the lowest
    rate, ties to the lower index. After warm-up the played arm is the top,
    and one ``heapreplace`` keeps the heap instead of a scan of every rate.

    After warm-up it states engine blocks that hold while each slot's count
    stays in a range, so that its shared flag is as it needs:

    - After an unshared pull, ``(T - t, (b,), ((1, 1),))`` for its top b: an
      unshared pull of b only lowers b's rate, so b stays the top.
    - After a shared pull, when every arm has the same pulls N and shared
      pulls S < N, ``(T - t, (0, 1, ..., K - 1), ((2, K),) * K)``: a shared
      pull raises an arm's rate above S / N, so the top moves to the next
      arm in index order, and after K slots every arm is level again. This
      is the round-robin of a herd, all players on one arm at a time. K
      bounds every count, as the model requires M < K.

    Otherwise it states nothing and is stepped.
    """

    def __init__(self, player_id: int, env: PublicEnvInfo) -> None:
        self.player_id = player_id
        self.num_arms = env.num_arms
        self.horizon = env.horizon
        self.phase = "explore"
        self._pulls = [0] * env.num_arms
        self._shared = [0] * env.num_arms
        self._rates = [float("inf")] * env.num_arms  # inf until first pull
        self._heap = [(rate, k) for k, rate in enumerate(self._rates)]
        self._best = 0
        self._last_shared = False  # the flag of the last pull

    def next_action(self, t: int) -> int:
        if t < self.num_arms:
            return _warmup_arm(self.player_id, t, self.num_arms)
        return self._best

    def schedule(self, t: int) -> tuple[int, tuple[int, ...], tuple] | None:
        """None in warm-up; then a block conditioned on the counts, or None."""
        num_arms = self.num_arms
        if t < num_arms:
            return None
        if not self._last_shared:
            return self.horizon - t, (self._best,), ((1, 1),)
        pulls, shared = self._pulls[0], self._shared[0]
        level = self._pulls.count(pulls) == self._shared.count(shared) == num_arms
        if level and shared < pulls:
            return self.horizon - t, tuple(range(num_arms)), ((2, num_arms),) * num_arms
        return None

    def observe(self, obs: Observation) -> None:
        k = obs.arm
        self._pulls[k] += 1
        self._last_shared = obs.shared
        if obs.shared:
            self._shared[k] += 1
        rate = self._rates[k] = self._shared[k] / self._pulls[k]
        heap = self._heap
        if heap[0][1] == k:
            heapreplace(heap, (rate, k))
        else:  # warm-up, or a caller that plays another arm than the top
            self._rebuild()
        self._best = heap[0][1]

    def observe_block(self, outcomes: Sequence[tuple[Observation, int, int]]) -> None:
        # The rates are the same floats sequential observations give.
        for obs, _, slots in outcomes:
            self._pulls[obs.arm] += slots
            if obs.shared:
                self._shared[obs.arm] += slots
        self._last_shared = obs.shared  # a block's flag is the same in every slot
        self._rates = [s / n for s, n in zip(self._shared, self._pulls)]
        self._rebuild()
        self._best = self._heap[0][1]

    def _rebuild(self) -> None:
        """Rebuild the heap from the rates."""
        self._heap[:] = [(r, a) for a, r in enumerate(self._rates)]
        heapify(self._heap)


class FixedArmPolicy:
    """Test dummy: always play one arm."""

    def __init__(self, player_id: int, env: PublicEnvInfo, arm: int) -> None:
        self.arm = arm
        self.phase = "exploit"

    def next_action(self, t: int) -> int:
        return self.arm

    def observe(self, obs: Observation) -> None:
        pass


def fixed_profile_factory(counts: list[int]):
    """Test dummy factory: realize a fixed assignment profile every slot."""
    slots: list[int] = []
    for arm, c in enumerate(counts):
        slots.extend([arm] * c)

    def factory(player_id: int, env: PublicEnvInfo) -> FixedArmPolicy:
        return FixedArmPolicy(player_id, env, slots[player_id])

    return factory
