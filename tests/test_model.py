import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shareable_bandits.model import (
    EnvSpec,
    Feedback,
    InfeasibleAssignmentError,
    expected_reward,
    oracle,
)

from oracles import brute_force_optimal


def spec_for(means, caps, players, horizon=100):
    return EnvSpec(
        num_arms=len(means),
        num_players=players,
        means=tuple(means),
        capacities=tuple(caps),
        horizon=horizon,
    )


class TestEnvSpec:
    def test_rejects_players_not_below_arms(self):
        with pytest.raises(ValueError, match="num_players"):
            spec_for([0.5, 0.5], [1, 1], 2)

    def test_rejects_capacity_above_players(self):
        with pytest.raises(ValueError, match="capacities"):
            spec_for([0.5, 0.5, 0.5], [3, 1, 1], 2)

    def test_rejects_bad_means(self):
        with pytest.raises(ValueError, match="means"):
            spec_for([0.5, 1.2, 0.1], [1, 1, 1], 2)

    def test_feedback_coercion(self):
        spec = EnvSpec(3, 2, (0.1, 0.2, 0.3), (1, 1, 1), 10, feedback="sda")
        assert spec.feedback is Feedback.SDA


class TestExpectedReward:
    def test_single_arm_collapse(self):
        spec = spec_for([0.6, 0.3, 0.1, 0.1], [2, 1, 1, 1], 3)
        value = expected_reward([3, 0, 0, 0], spec.means, spec.capacities)
        assert value == pytest.approx(2 * 0.6)

    def test_zero_mean_arm(self):
        spec = spec_for([0.5, 0.0, 0.3], [1, 2, 1], 2)
        assert expected_reward([0, 2, 0], spec.means, spec.capacities) == 0.0

    def test_mixed_profile(self):
        # 2*0.9 + 1*0.8 + 1*0.7, with the first arm at capacity.
        value = expected_reward([2, 1, 1], [0.9, 0.8, 0.7], [2, 1, 3])
        assert value == pytest.approx(3.3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expected_reward([1, 1], [0.5], [1])


class TestOracle:
    def test_known_instance(self):
        opt = oracle([0.9, 0.8, 0.7], [2, 1, 3], 4)
        assert opt.profile.counts == (2, 1, 1)
        assert opt.least_favored == 2
        assert opt.value == pytest.approx(3.3)

    def test_single_player_takes_argmax(self):
        opt = oracle([0.2, 0.7, 0.5], [1, 1, 1], 1)
        assert opt.profile.counts == (0, 1, 0)
        assert opt.least_favored == 1

    def test_tie_broken_by_lower_index(self):
        opt = oracle([0.5, 0.5], [1, 1], 1)
        assert opt.profile.counts == (1, 0)
        assert opt.least_favored == 0

    def test_infeasible(self):
        with pytest.raises(InfeasibleAssignmentError):
            oracle([0.5, 0.4], [1, 1], 3)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            players = int(rng.integers(1, 7))
            means = rng.random(k).round(6).tolist()
            caps = rng.integers(1, 4, size=k).tolist()
            if sum(caps) < players:
                continue
            opt = oracle(means, caps, players)
            ref = brute_force_optimal(means, caps, players)
            assert opt.value == pytest.approx(ref.best_value, abs=1e-9)

    def test_profile_respects_capacities(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            players = int(rng.integers(1, 8))
            means = rng.random(k).tolist()
            caps = rng.integers(1, 5, size=k).tolist()
            if sum(caps) < players:
                continue
            opt = oracle(means, caps, players)
            assert all(a <= m for a, m in zip(opt.profile.counts, caps))
            assert sum(opt.profile.counts) == players


class TestPerSlotRegret:
    """A profile's one-slot regret is the optimum's value less its expected reward."""

    def test_optimal_profile_has_zero_regret(self):
        opt = oracle([0.9, 0.8, 0.7], [2, 1, 3], 4)
        counts = opt.profile.counts
        assert opt.value - expected_reward(counts, [0.9, 0.8, 0.7], [2, 1, 3]) == 0.0

    def test_worst_profile_value(self):
        opt = oracle([0.9, 0.8, 0.7], [2, 1, 3], 4)
        gap = opt.value - expected_reward([0, 0, 4], [0.9, 0.8, 0.7], [2, 1, 3])
        assert gap == pytest.approx(3.3 - 3 * 0.7)

    def test_componentwise_equality_required(self):
        opt = oracle([0.9, 0.8, 0.7], [2, 1, 3], 4)
        assert opt.value - expected_reward([1, 2, 1], [0.9, 0.8, 0.7], [2, 1, 3]) > 0.0

    def test_never_negative(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            players = int(rng.integers(1, 6))
            means = rng.random(k).tolist()
            caps = rng.integers(1, min(players, 3) + 1, size=k).tolist()
            if sum(caps) < players:
                continue
            opt = oracle(means, caps, players)
            profile = rng.multinomial(players, np.ones(k) / k)
            assert opt.value - expected_reward(profile.tolist(), means, caps) >= 0.0


@settings(max_examples=200, deadline=None)
@given(
    means=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=5
    ),
    caps=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=5),
    players=st.integers(min_value=1, max_value=6),
)
def test_oracle_optimality_property(means, caps, players):
    k = min(len(means), len(caps))
    means, caps = means[:k], caps[:k]
    if sum(caps) < players:
        return
    opt = oracle(means, caps, players)
    ref = brute_force_optimal(means, caps, players)
    assert opt.value == pytest.approx(ref.best_value, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_moving_player_to_better_spare_arm_never_hurts(data):
    """Monotonicity: shifting a player from an at-capacity arm to a strictly
    better under-capacity arm cannot lower the expected reward."""
    k = data.draw(st.integers(min_value=2, max_value=5))
    means = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    caps = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=k, max_size=k))
    counts = data.draw(st.lists(st.integers(min_value=0, max_value=4), min_size=k, max_size=k))
    src = data.draw(st.integers(min_value=0, max_value=k - 1))
    dst = data.draw(st.integers(min_value=0, max_value=k - 1))
    if src == dst or counts[src] < caps[src] or counts[dst] >= caps[dst]:
        return
    if means[dst] < means[src]:
        return
    before = expected_reward(counts, means, caps)
    moved = list(counts)
    moved[src] -= 1
    moved[dst] += 1
    after = expected_reward(moved, means, caps)
    assert after >= before - 1e-12
