import pickle

import numpy as np

from shareable_bandits.baselines import (
    FixedArmPolicy,
    HighestRewardPolicy,
    IdlestArmPolicy,
    fixed_profile_factory,
)
from shareable_bandits.engine import Observation, PublicEnvInfo, run
from shareable_bandits.model import EnvSpec, Feedback
from shareable_bandits.scenarios import load_scenario


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


def random_states(seed, count):
    """Highest-reward players past warm-up, with ties, zero means and large pull counts.

    Every sum is integer-valued, as the engine's rewards are. Some arms copy
    another arm's mean exactly, and some sums sit at an integer multiple of
    another mean, where a bound that is not strict ends on a tie.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        num_arms = int(rng.integers(2, 7))
        policy = HighestRewardPolicy(0, make_env(num_arms=num_arms, horizon=20_000))
        for k in range(num_arms):
            pulls = int(rng.choice([1, 3, 40, 1_000, 100_000, 2_000_000]))
            if rng.random() < 0.25:
                total = 0
            else:
                total = int(rng.integers(0, 3 * pulls + 1))
            if k and rng.random() < 0.3:  # a copy of an earlier arm's mean
                j = int(rng.integers(k))
                scale = int(rng.integers(1, 4))
                pulls, total = policy._pulls[j] * scale, int(policy._sums[j]) * scale
            policy._pulls[k] = pulls
            policy._sums[k] = float(total)
            policy._means[k] = total / pulls
        means = policy._means
        policy._best = max(range(num_arms), key=lambda k: (means[k], -k))
        if rng.random() < 0.5:  # put b's sum on an integer multiple of the runner-up
            b = policy._best
            rest = max(means[:b] + means[b + 1 :])
            if rest > 0:
                pulls = policy._pulls[b]
                extra = int(rng.integers(1, 50))
                total = rest * (pulls + extra)
                if total == int(total) and total / pulls > rest:
                    policy._sums[b] = total
                    means[b] = total / pulls
        yield policy


def copy_state(policy):
    return (list(policy._sums), list(policy._pulls), list(policy._means), policy._best)


class TestHighestRewardBlocks:
    def test_warmup_states_no_block(self):
        policy = HighestRewardPolicy(0, make_env())
        assert [policy.schedule(t) for t in range(4)] == [None] * 4

    def test_zero_pulls_within_the_bound_keep_the_argmax(self):
        checked = 0
        for policy in random_states(11, 400):
            b, t = policy._best, policy.num_arms
            n, arms = policy.schedule(t)
            assert arms == (b,)
            if n == 1 or n > 30_000:
                continue
            checked += 1
            for j in range(1, n + 1):
                policy.observe(Observation(b, 0.0, 1, False))
                assert policy._best == b, (j, n)
        assert checked >= 100

    def test_ties_on_the_bound_stay_strict(self):
        # Arm 0's mean is 0.5; arm 1 has S = 60 over N = 100 pulls, so 20
        # zero pulls bring it to exactly 0.5, where the lower index wins.
        policy = HighestRewardPolicy(0, make_env(num_arms=2))
        policy._sums, policy._pulls = [1.0, 60.0], [2, 100]
        policy._means, policy._best = [0.5, 0.6], 1
        n, _ = policy.schedule(2)
        assert 1 < n < 20
        for _ in range(20):
            policy.observe(Observation(1, 0.0, 1, False))
        assert policy._best == 0

    def test_unbounded_when_no_other_arm_has_paid(self):
        policy = HighestRewardPolicy(0, make_env(horizon=500))
        for arm, reward in enumerate([0.0, 1.0, 0.0, 0.0]):
            policy.observe(Observation(arm, reward, 1, False))
        assert policy.schedule(4) == (496, (1,))
        policy = HighestRewardPolicy(0, make_env(horizon=500))
        for arm in range(4):
            policy.observe(Observation(arm, 0.0, 1, False))
        assert policy.schedule(4) == (496, (0,))  # every mean 0: arm 0 for good

    def test_repeated_calls_without_observing_agree(self):
        """Asked again without an observation, even past its bound, it answers n >= 1.

        A bounded answer depends on the state alone, so it repeats; an
        unbounded one runs from the slot asked to the horizon.
        """
        cases = {"bounded": 0, "unbounded": 0}
        for policy in random_states(13, 200):
            b, start, horizon = policy._best, policy.num_arms, policy.horizon
            rest = max(policy._means[:b] + policy._means[b + 1 :])
            first, _ = policy.schedule(start)
            for t in (start, start + 1, start + first, start + 3 * first + 7, horizon - 1):
                t = min(t, horizon - 1)
                n, arms = policy.schedule(t)
                assert n >= 1 and arms == (b,)
                assert n == (first if rest > 0 else horizon - t), (t, n, first)
            cases["bounded" if rest > 0 else "unbounded"] += 1
        assert min(cases.values()) >= 10, cases

    def test_schedule_is_pure(self):
        """Asked twice, in warm-up or after it, the answers agree and no state moves."""
        policies = [HighestRewardPolicy(0, make_env()), *random_states(14, 100)]
        for policy in policies:
            for t in (0, policy.num_arms, policy.num_arms + 17):
                before = pickle.dumps(vars(policy))
                first = policy.schedule(t)
                assert policy.schedule(t) == first
                assert pickle.dumps(vars(policy)) == before

    def test_block_equals_sequential_observations(self):
        rng = np.random.default_rng(5)
        for block in random_states(12, 200):
            step = HighestRewardPolicy(0, make_env(num_arms=block.num_arms))
            step._sums, step._pulls, step._means, step._best = copy_state(block)
            arm = block._best if rng.random() < 0.7 else int(rng.integers(block.num_arms))
            n = int(rng.integers(1, 300))
            hits = int(rng.integers(0, n + 1))
            factor = float(rng.integers(1, 4))
            hit = Observation(arm, factor, int(factor), factor > 1)
            miss = Observation(arm, 0.0, int(factor), factor > 1)
            for paid in rng.permutation([True] * hits + [False] * (n - hits)):
                step.observe(hit if paid else miss)
            block.observe_block([(hit, hits, n)])
            assert copy_state(block) == copy_state(step)


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


    def test_heap_argmin_matches_the_index_rule_with_ties(self):
        """After every observation the heap's top is ``rates.index(min(rates))``.

        Small pull counts make equal rates common. Most observations are of
        the played arm, as in a run; the rest are of any arm.
        """
        rng = np.random.default_rng(9)
        ties = 0
        for _ in range(200):
            num_arms = int(rng.integers(2, 7))
            policy = IdlestArmPolicy(int(rng.integers(num_arms)), make_env(num_arms=num_arms))
            for t in range(int(rng.integers(1, 60))):
                arm = policy.next_action(t)
                if rng.random() < 0.2:
                    arm = int(rng.integers(num_arms))
                shared = bool(rng.random() < 0.5)
                policy.observe(Observation(arm, 0.0, 2 if shared else 1, shared))
                rates = policy._rates
                assert policy._best == rates.index(min(rates))
                ties += rates.count(min(rates)) > 1
        assert ties > 500


class TestIdlestArmBlocks:
    def test_warmup_states_no_block(self):
        policy = IdlestArmPolicy(0, make_env())
        assert [policy.schedule(t) for t in range(4)] == [None] * 4

    def test_unshared_pull_states_the_top_to_the_horizon(self):
        policy = IdlestArmPolicy(0, make_env())
        for arm, shared in [(0, True), (1, True), (2, False), (3, True), (2, False)]:
            policy.observe(Observation(arm, 0.0, 2 if shared else 1, shared))
        assert policy.schedule(5) == (195, (2,), ((1, 1),))
        for _ in range(50):  # the statement holds: unshared pulls keep arm 2
            policy.observe(Observation(2, 0.0, 1, False))
            assert policy._best == 2

    def test_level_herd_states_the_round_robin(self):
        policy = IdlestArmPolicy(0, make_env())
        for arm in range(4):
            policy.observe(Observation(arm, 0.0, 1, False))
        for arm in range(4):
            policy.observe(Observation(arm, 0.0, 2, True))
            # Until every arm is level again, it states nothing.
            herd = (192, (0, 1, 2, 3), ((2, 4),) * 4)
            assert policy.schedule(5 + arm) == (None if arm < 3 else herd)
        for t in range(8, 40):  # the statement holds: shared pulls go round
            assert policy.next_action(t) == t % 4
            policy.observe(Observation(t % 4, 0.0, 2, True))

    def test_all_shared_arms_state_nothing(self):
        # Every rate is 1: a shared pull keeps arm 0 on top, not round-robin.
        policy = IdlestArmPolicy(0, make_env())
        for arm in range(4):
            policy.observe(Observation(arm, 0.0, 2, True))
        assert policy.schedule(4) is None

    def test_block_equals_sequential_observations(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            stepped = IdlestArmPolicy(0, make_env())
            blocked = IdlestArmPolicy(0, make_env())
            for arm in range(4):
                shared = bool(rng.integers(2))
                for policy in (stepped, blocked):
                    policy.observe(Observation(arm, 0.0, 2 if shared else 1, shared))
            shared = bool(rng.integers(2))
            outcomes = []
            for arm in rng.permutation(4)[: int(rng.integers(1, 5))]:
                obs = Observation(int(arm), 0.0, 2 if shared else 1, shared)
                slots = int(rng.integers(1, 30))
                outcomes.append((obs, 0, slots))
                for _ in range(slots):
                    stepped.observe(obs)
            blocked.observe_block(outcomes)
            for name in ("_pulls", "_shared", "_rates", "_best", "_last_shared"):
                assert getattr(blocked, name) == getattr(stepped, name), name
            assert blocked._heap[0] == stepped._heap[0]

    def test_cellular_herd_steps_only_its_first_two_sweeps(self):
        """At seed 0 of ``cellular-5g4g`` every player is stepped in at most 2K slots."""
        scenario = load_scenario("cellular-5g4g")
        spec = scenario.env_spec("idlest-arm", 0)
        stepped = [0] * spec.num_players

        class Counted(IdlestArmPolicy):
            def next_action(self, t):
                stepped[self.player_id] += 1
                return super().next_action(t)

        trace = run(Counted, spec, checkpoints=scenario.checkpoints)
        assert max(stepped) <= 2 * spec.num_arms
        assert trace.final_regret == 2828051.0074786963


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
