import numpy as np

from shareable_bandits.baselines import (
    FixedArmPolicy,
    HighestRewardPolicy,
    IdlestArmPolicy,
    fixed_profile_factory,
)
from shareable_bandits.engine import Observation, PublicEnvInfo, run
from shareable_bandits.model import EnvSpec, Feedback


def make_spec(**kw):
    base = dict(
        num_arms=4,
        num_players=2,
        means=(1.0, 0.0, 0.0, 0.0),
        capacities=(2, 1, 1, 1),
        horizon=200,
        feedback=Feedback.SDI,
        seed=0,
    )
    base.update(kw)
    return EnvSpec(**base)


def make_env(num_arms=4, horizon=200, feedback=Feedback.SDI):
    return PublicEnvInfo(
        num_arms=num_arms,
        horizon=horizon,
        feedback=feedback,
        rng=np.random.Generator(np.random.PCG64(0)),
    )


class TestWarmup:
    def test_round_robin_formula(self):
        policy = HighestRewardPolicy(1, make_env())
        arms = [policy.next_action(t) for t in range(4)]
        assert arms == [(1 + t + 1) % 4 for t in range(4)]

    def test_covers_every_arm_exactly_once(self):
        for pid in range(3):
            policy = IdlestArmPolicy(pid, make_env())
            arms = [policy.next_action(t) for t in range(4)]
            assert sorted(arms) == [0, 1, 2, 3]


class TestHighestReward:
    def test_finds_deterministic_best_arm(self):
        spec = make_spec()
        trace = run(HighestRewardPolicy, spec, checkpoints=[200])
        # with means {1, 0, 0, 0} both players must sit on arm 0 after warm-up
        grabbed = {}
        run(HighestRewardPolicy, spec,
            probe=lambda t, ps, c: grabbed.update(arms=[p._best for p in ps]))
        assert grabbed["arms"] == [0, 0]

    def test_argmax_ties_take_lower_index(self):
        policy = HighestRewardPolicy(0, make_env())
        for arm in range(4):
            policy.observe(Observation(arm, 0.0, 1, False))
        assert policy.next_action(10) == 0

    def test_incremental_argmax_matches_full_scan(self):
        rng = np.random.default_rng(8)
        policy = HighestRewardPolicy(0, make_env(num_arms=5))
        for _ in range(2000):
            arm = int(rng.integers(5))
            policy.observe(Observation(arm, float(rng.integers(0, 3)), 1, False))
            best = max(range(5), key=lambda k: (policy._means[k], -k))
            assert policy._best == best

    def test_uses_total_reward_not_per_load(self):
        """A crowded high-total arm beats a lone arm with a higher per-load mean."""
        policy = HighestRewardPolicy(0, make_env())
        policy.observe(Observation(0, 0.9, 1, False))
        policy.observe(Observation(1, 2.0, 3, True))
        assert policy.next_action(10) == 1


class TestIdlestArm:
    def test_single_player_stays_after_warmup(self):
        spec = make_spec(num_players=1, capacities=(1, 1, 1, 1),
                         means=(0.5, 0.5, 0.5, 0.5))
        grabbed = {}
        run(IdlestArmPolicy, spec,
            probe=lambda t, ps, c: grabbed.update(arm=ps[0].next_action(t + 1)))
        assert grabbed["arm"] == 0  # never shared: all rates zero, tie to arm 0

    def test_prefers_least_shared_rate(self):
        policy = IdlestArmPolicy(0, make_env())
        history = {0: [True, True], 1: [True, False], 2: [False], 3: [True]}
        for arm, flags in history.items():
            for f in flags:
                policy.observe(Observation(arm, 0.0, 2 if f else 1, f))
        assert policy.next_action(50) == 2

    def test_tie_by_lower_index(self):
        policy = IdlestArmPolicy(0, make_env())
        for arm in range(4):
            policy.observe(Observation(arm, 0.0, 1, False))
        assert policy.next_action(50) == 0

    def test_incremental_argmin_matches_full_scan(self):
        rng = np.random.default_rng(8)
        policy = IdlestArmPolicy(0, make_env(num_arms=5))
        for _ in range(2000):
            arm = int(rng.integers(5))
            shared = bool(rng.integers(2))
            policy.observe(Observation(arm, 0.0, 2 if shared else 1, shared))
            rates = [
                policy._shared[k] / policy._pulls[k] if policy._pulls[k] else float("inf")
                for k in range(5)
            ]
            best = min(range(5), key=lambda k: (rates[k], k))
            assert policy.next_action(10) == best


class TestDummies:
    def test_fixed_profile_factory_spreads_players(self):
        factory = fixed_profile_factory([2, 1, 0, 0])
        env = make_env()
        arms = [factory(i, env).next_action(0) for i in range(3)]
        assert arms == [0, 0, 1]

    def test_fixed_arm_policy_ignores_everything(self):
        policy = FixedArmPolicy(0, make_env(), 3)
        policy.observe(Observation(3, 1.0, 2, True))
        assert policy.next_action(123) == 3


class TestDecentralization:
    def test_constructors_take_only_public_info(self):
        import inspect

        for cls in (HighestRewardPolicy, IdlestArmPolicy):
            params = list(inspect.signature(cls.__init__).parameters)
            assert params == ["self", "player_id", "env"]
