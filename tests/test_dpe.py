import copy
import dataclasses
import itertools
import json
import math
import pickle
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from shareable_bandits import engine
from shareable_bandits.dpe import (
    DpeSdiPolicy,
    SharedInfo,
    UnsupportedFeedbackError,
    recover_profile,
)
from shareable_bandits.engine import Observation, PublicEnvInfo, run
from shareable_bandits.harness import policy_factory
from shareable_bandits.model import EnvSpec, Feedback, optimal_profile_for, oracle
from shareable_bandits.protocol import (
    LeaderDecision,
    ProtocolCorruptionError,
    bound_bits,
    broadcast_message,
)
from shareable_bandits.scenarios import default_checkpoints, load_scenario
from shareable_bandits.stats import (
    CapacityBounds,
    PlayerStats,
    klucb_at_least,
    klucb_budget,
    update_capacity_bounds,
)

from oracles import naive_run, rotation_arm, simulate_dpe_broadcast


def make_spec(**kw):
    base = dict(
        num_arms=5,
        num_players=3,
        means=(0.9, 0.7, 0.5, 0.3, 0.1),
        capacities=(2, 1, 2, 1, 1),
        horizon=4000,
        feedback=Feedback.SDI,
        seed=1,
    )
    base.update(kw)
    return EnvSpec(**base)


# A run in which some views put both players on one arm.
SEED_47_SPEC = EnvSpec(7, 2, (0.62, 0.53, 0.36, 0.0, 0.39, 0.43, 0.41),
                       (1, 2, 1, 2, 1, 2, 1), 2795, feedback="sdi", seed=47)
# A run whose leader parks in a single-arm view: it leaves the arm to signal.
SEED_63_SPEC = EnvSpec(8, 2, (1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0),
                       (2, 1, 2, 2, 2, 2, 2, 1), 1205, feedback="sdi", seed=63)
# The paper's synthetic environment (K = 9, M = 6) as seed 0 permutes it.
SYNTHETIC_SPEC = load_scenario("synthetic-0.025").env_spec("dpe-sdi", 0)
# One player: the leader applies its own bits and never broadcasts.
ONE_PLAYER_SPEC = make_spec(
    num_players=1, capacities=(1, 1, 1, 1, 1), horizon=3000,
    means=(0.55, 0.6, 0.5, 0.3, 0.2),
)


def naive(policy, spec):
    """Step every slot of a run of ``policy`` on ``spec`` (``oracles.naive_run``)."""
    opt = optimal_profile_for(spec)
    return naive_run(
        policy, lambda rng: PublicEnvInfo(spec.num_arms, spec.horizon, spec.feedback, rng),
        spec, True, opt.value, opt.profile.counts, [],
    )


def views_at_leader_round_start(policies):
    """Every player's view when the leader starts a round in the next slot, else None.

    The leader is stepped in every slot. A riding follower's state is as of
    its ride's start, but its view changes only in a broadcast, which it
    steps, so its view is current in every slot.
    """
    leader = next((p for p in policies if p.rank == 0), None)
    if leader is None or leader._mode != "explore-round" or leader._slot:
        return None
    return {
        (frozenset(p.view.optimal_set), p.view.least_favored,
         tuple(p.view.cap_lower), tuple(p.view.cap_upper))
        for p in policies
    }


def make_env(spec, seed=0):
    return PublicEnvInfo(
        num_arms=spec.num_arms,
        horizon=spec.horizon,
        feedback=spec.feedback,
        rng=np.random.Generator(np.random.PCG64(seed)),
    )


class TestConstruction:
    def test_rejects_sda(self):
        spec = make_spec(feedback=Feedback.SDA)
        with pytest.raises(UnsupportedFeedbackError):
            DpeSdiPolicy(0, make_env(spec))

    def test_delta_defaults_to_two_over_horizon(self):
        spec = make_spec()
        policy = DpeSdiPolicy(0, make_env(spec))
        assert policy.delta == pytest.approx(2.0 / spec.horizon)


class TestRecoverProfile:
    def test_two_arm_split(self):
        info = SharedInfo({0, 1}, 1, [2, 1, 1], [4, 4, 4])
        assert recover_profile(info, 4) == [2, 2, 0]

    def test_single_arm_takes_everyone(self):
        info = SharedInfo({2}, 2, [1, 1, 1], [4, 4, 4])
        assert recover_profile(info, 4) == [0, 0, 4]

    def test_remainder_one(self):
        info = SharedInfo({0, 1, 2}, 2, [2, 1, 3], [4, 4, 4])
        assert recover_profile(info, 4) == [2, 1, 1]

    def test_nonpositive_remainder_is_corruption(self):
        info = SharedInfo({0, 1}, 1, [4, 1, 1], [4, 4, 4])
        with pytest.raises(ProtocolCorruptionError):
            recover_profile(info, 4)


class TestRotation:
    def test_prefix_windows(self):
        # assignment (2, 1): cumulative (2, 3)
        prefix = [2, 3]
        arms = [rotation_arm(rank, 0, prefix) for rank in range(3)]
        assert sorted(arms) == [0, 0, 1]

    def test_all_players_on_one_arm(self):
        prefix = [0, 3, 3]
        assert {rotation_arm(r, t, prefix) for r in range(3) for t in range(9)} == {1}

    def test_every_player_serves_profile_share(self):
        profile = [2, 0, 3, 1]
        prefix = [2, 2, 5, 6]
        for rank in range(6):
            visits = [rotation_arm(rank, t, prefix) for t in range(6)]
            for arm, count in enumerate(profile):
                assert visits.count(arm) == count

    def test_slotwise_profile_exact(self):
        profile = [1, 3, 2]
        prefix = [1, 4, 6]
        for t in range(12):
            arms = [rotation_arm(rank, t, prefix) for rank in range(6)]
            for arm, count in enumerate(profile):
                assert arms.count(arm) == count


def random_shared_info(rng, num_arms, num_players):
    size = int(rng.integers(1, num_players + 1))
    optimal = set(int(a) for a in rng.choice(num_arms, size=size, replace=False))
    lower = [1] * num_arms
    upper = [num_players] * num_arms
    for k in range(num_arms):
        lower[k] = int(rng.integers(1, num_players + 1))
        upper[k] = int(rng.integers(lower[k], num_players + 1))
    least = int(rng.choice(sorted(optimal)))
    # keep the profile recoverable: players left for the least-favored arm
    while sum(lower[k] for k in optimal if k != least) >= num_players:
        optimal.discard(max(k for k in optimal if k != least))
    return SharedInfo(optimal, least, lower, upper)


def mutate(rng, info, num_arms, num_players):
    new = copy.deepcopy(info)
    kind = rng.integers(4)
    if kind == 0 and len(new.optimal_set) > 1:
        drop = int(rng.choice(sorted(new.optimal_set)))
        new.optimal_set.discard(drop)
        if new.least_favored == drop:
            new.least_favored = int(rng.choice(sorted(new.optimal_set)))
    elif kind == 1:
        spare = sorted(set(range(num_arms)) - new.optimal_set)
        if spare:
            new.optimal_set.add(int(rng.choice(spare)))
    elif kind == 2:
        new.least_favored = int(rng.choice(sorted(new.optimal_set)))
    else:
        # Bounds are monotone: lower may only rise and upper only fall.
        k = int(rng.integers(num_arms))
        jump = int(rng.integers(1, 3))
        new.cap_lower[k] = min(new.cap_lower[k] + jump, new.cap_upper[k])
        new.cap_upper[k] = max(new.cap_upper[k] - int(rng.integers(0, 3)),
                               new.cap_lower[k])
    while sum(new.cap_lower[k] for k in new.optimal_set if k != new.least_favored) >= num_players:
        drop = max(k for k in new.optimal_set if k != new.least_favored)
        new.optimal_set.discard(drop)
    return new


def broadcast_players(view, num_players, num_arms):
    """Leader (rank 0) and followers sharing ``view``, ready to broadcast."""
    players = []
    for rank in range(num_players):
        env = PublicEnvInfo(num_arms, 1000, Feedback.SDI, np.random.default_rng(rank))
        p = DpeSdiPolicy(rank, env)
        p.num_players, p.rank, p._leader = num_players, rank, rank == 0
        p._nbits = bound_bits(num_players)
        p.view = copy.deepcopy(view)
        players.append(p)
    return players


def set_target(leader, info):
    """Give the leader ``info`` as its assignment and capacity bounds."""
    counts = recover_profile(info, leader.num_players)
    leader._opt = tuple(counts), info.least_favored
    leader._opt_set = {k for k, c in enumerate(counts) if c > 0}
    leader.bounds = CapacityBounds(len(counts), leader.num_players)
    leader.bounds.lower = list(info.cap_lower)
    leader.bounds.upper = list(info.cap_upper)


def transfer_through_counts(new, view, num_players, num_arms):
    """One broadcast round through the policies' own code.

    The leader sends its target ``new`` against the shared ``view``; every
    follower decodes it from the sharing count on its own arm, and the
    leader applies its own bits. Returns the leader's arm per slot and each
    player's view afterwards.
    """
    players = broadcast_players(view, num_players, num_arms)
    set_target(players[0], new)
    for p in players:
        p._begin_broadcast(0)
    leader_arms = []
    t = 0
    while players[0]._mode == "comm-broadcast":
        arms = [p.next_action(t) for p in players]
        leader_arms.append(arms[0])
        for p, a in zip(players, arms):
            c = arms.count(a)
            p.observe(Observation(a, 0.0, c, c > 1))
        t += 1
    assert {p._mode for p in players} == {"explore-round"}
    return leader_arms, [p.view for p in players]


def as_dict(info):
    return {"optimal": info.optimal_set, "least": info.least_favored,
            "lower": info.cap_lower, "upper": info.cap_upper}


def planned_player(rng, leader):
    """The leader or a random follower of a random view, ready to begin a round.

    Returns the player and the prefix sums of the view's profile.
    """
    num_arms = int(rng.integers(3, 10))
    num_players = int(rng.integers(1 if leader else 2, num_arms))
    rank = 0 if leader else int(rng.integers(1, num_players))
    env = PublicEnvInfo(num_arms, 1000, Feedback.SDI, np.random.default_rng(0))
    policy = DpeSdiPolicy(rank, env)
    policy.num_players, policy.rank, policy._leader = num_players, rank, rank == 0
    policy.view = random_shared_info(rng, num_arms, num_players)
    prefix = list(itertools.accumulate(recover_profile(policy.view, num_players)))
    return policy, prefix


class TestRoundPlan:
    def test_rotation_table_matches_rotation_arm(self):
        """A follower's round plan is the rotation rule slot by slot, then the rallies."""
        rng = np.random.default_rng(5)
        single = 0
        for _ in range(300):
            policy, prefix = planned_player(rng, leader=False)
            num_players, view = policy.num_players, policy.view
            t0 = int(rng.integers(0, 10_000))
            policy._begin_round(t0)
            ue_arms = sorted(
                k for k in view.optimal_set if view.cap_lower[k] != view.cap_upper[k]
            )
            rotation = [rotation_arm(policy.rank, t0 + s, prefix) for s in range(num_players)]
            assert policy._plan == rotation + ue_arms
            assert policy._len == num_players + len(ue_arms)
            if len(view.optimal_set) == 1:
                assert policy._limits is None
                single += 1
            else:
                counts = recover_profile(view, num_players)
                assert policy._limits == (
                    [counts[arm] for arm in rotation] + [num_players] * len(ue_arms)
                )
        assert 0 < single < 300

    def test_leader_plan_draws_the_stepped_coins(self):
        """The leader's plan draws the coins stepping would: same calls, same order."""
        rng = np.random.default_rng(8)
        probed = 0
        for trial in range(300):
            leader, prefix = planned_player(rng, leader=True)
            num_players, num_arms = leader.num_players, leader.num_arms
            leader._explore_set = sorted(
                int(k) for k in rng.choice(num_arms, int(rng.integers(0, 4)), replace=False)
            )
            leader.rng = np.random.default_rng(trial)
            reference = np.random.default_rng(trial)
            # Some rounds run into the horizon, where no coin may be drawn.
            t0 = int(rng.integers(leader.horizon - num_players, leader.horizon + 1))
            if trial % 2:
                t0 = int(rng.integers(0, leader.horizon - num_players))
            leader._begin_round(t0)
            single = len(leader.view.optimal_set) == 1
            for s in range(min(num_players, leader.horizon - t0)):
                target = rotation_arm(0, t0 + s, prefix)
                probes = leader._explore_set
                if (
                    target == leader.view.least_favored
                    and probes
                    and (s or not single or num_players == 1)
                    and reference.random() < 0.5
                ):
                    target = probes[int(reference.integers(len(probes)))]
                    probed += 1
                assert leader._plan[s] == target
            assert leader.rng.bit_generator.state == reference.bit_generator.state
        assert probed > 20


class TestBroadcastProtocol:
    def test_single_least_favored_change(self):
        view = SharedInfo({0, 1}, 0, [2, 1, 1, 1], [3, 3, 3, 3])
        new = copy.deepcopy(view)
        new.least_favored = 1
        arms, views = transfer_through_counts(new, view, num_players=3, num_arms=4)
        # news mask, arm 1's reject/accept/least flags, lower - 1, upper - 1
        bits = [0, 1, 0, 0] + [0, 0, 1] + [0, 0] + [1, 0]
        assert arms == [0 if b else 1 for b in bits]
        assert all(v == new for v in views)

    def test_bound_jump_arrives_in_one_round(self):
        view = SharedInfo({0, 1}, 1, [1, 1, 1, 1, 1, 1], [5, 5, 5, 5, 5, 5])
        new = SharedInfo({0, 1}, 1, [4, 1, 1, 1, 1, 1], [4, 5, 5, 5, 5, 2])
        _, views = transfer_through_counts(new, view, num_players=5, num_arms=6)
        assert all(v == new for v in views)

    def test_round_transfer_matches_hand_simulation(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            num_arms = int(rng.integers(3, 9))
            num_players = int(rng.integers(2, min(num_arms, 6) + 1))
            view = random_shared_info(rng, num_arms, num_players)
            new = mutate(rng, view, num_arms, num_players)
            arms, views = transfer_through_counts(new, view, num_players, num_arms)
            ref_arms, ref_state = simulate_dpe_broadcast(
                num_arms, num_players, as_dict(view), as_dict(new)
            )
            assert arms == ref_arms
            for got in views:
                assert as_dict(got) == ref_state

    def test_every_change_arrives_in_one_round(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            num_arms = int(rng.integers(3, 10))
            num_players = int(rng.integers(2, min(num_arms, 7) + 1))
            view = random_shared_info(rng, num_arms, num_players)
            new = view
            for _ in range(int(rng.integers(1, 4))):
                new = mutate(rng, new, num_arms, num_players)
            _, views = transfer_through_counts(new, view, num_players, num_arms)
            assert all(v == new for v in views)

    @pytest.mark.parametrize(
        "decision", [LeaderDecision(rejected={1}), LeaderDecision(accepted={0})],
        ids=["remove-absent-arm", "add-present-arm"],
    )
    def test_impossible_set_change_is_corruption(self, decision):
        view = SharedInfo({0}, 0, [1, 1, 1], [2, 2, 2])
        follower = broadcast_players(view, num_players=2, num_arms=3)[1]
        follower._message = broadcast_message(
            decision, range(3), view.cap_lower, view.cap_upper,
            view.cap_lower, view.cap_upper, follower._nbits,
        )
        with pytest.raises(ProtocolCorruptionError):
            follower._apply(follower._message)


class TestSingleArmView:
    """A view with all M players on arm P: parking on P adds nobody."""

    VIEW = SharedInfo({2}, 2, [1, 1, 3, 1], [3, 3, 3, 3])  # M = 3, K = 4

    def start_round(self, leader_seed=0, probes=()):
        players = broadcast_players(self.VIEW, num_players=3, num_arms=4)
        leader = players[0]
        leader.rng = np.random.default_rng(leader_seed)
        leader.stats = PlayerStats(4)
        for k in range(4):
            leader.stats.add_individual(k, 0.5)
        leader._mu = [0.5] * 4  # the means as the leader's update caches them
        leader.bounds = CapacityBounds(4, 3)
        leader._explore_set = list(probes)
        for p in players:
            p._begin_round(0)
        return players

    def play(self, players, t):
        arms = [p.next_action(t) for p in players]
        for p, a in zip(players, arms):
            c = arms.count(a)
            p.observe(Observation(a, 0.0, c, c > 1))
        return arms

    def test_followers_detect_a_pending_broadcast(self):
        players = self.start_round()
        leader = players[0]
        set_target(leader, SharedInfo({0, 2}, 2, [1, 1, 2, 1], [3, 3, 3, 3]))
        leader._pending = True
        leader._begin_round(0)
        for t in range(3):
            self.play(players, t)
        assert [p._mode for p in players] == ["comm-broadcast"] * 3

    def test_leader_does_not_probe_at_slot_zero(self):
        later = set()
        for seed in range(20):
            players = self.start_round(leader_seed=seed, probes=[0, 1, 3])
            arms = self.play(players, 0)
            assert arms == [2, 2, 2]
            assert not any(p._pending for p in players)
            later.add(self.play(players, 1)[0])
        assert later - {2}, "the leader never probed at slot 1"


class TestEndToEnd:
    def test_rally_learns_player_count(self):
        spec = make_spec(horizon=60)
        seen = {}

        def probe(t, policies, counts):
            if t == 0:
                seen["M"] = [p.num_players for p in policies]

        run(DpeSdiPolicy, spec, probe=probe)
        assert seen["M"] == [3, 3, 3]

    def test_orthogonalization_yields_rank_permutation(self):
        spec = make_spec(horizon=300)
        final = {}

        def probe(t, policies, counts):
            final["ranks"] = [p.rank for p in policies]

        run(DpeSdiPolicy, spec, probe=probe)
        assert sorted(final["ranks"]) == [0, 1, 2]

    def test_single_player_converges_to_best_arm(self):
        spec = make_spec(
            num_players=1,
            capacities=(1, 1, 1, 1, 1),
            horizon=3000,
            means=(0.9, 0.5, 0.4, 0.3, 0.2),
        )
        trace = run(DpeSdiPolicy, spec)
        assert trace.optimal_fraction(500) > 0.9

    def test_single_player_applies_without_broadcast(self):
        """With M = 1 the leader applies its own bits at once, in no slot."""
        phases, views = set(), set()

        def probe(t, policies, counts):
            p = policies[0]
            phases.add(p.phase)
            if p._mode == "explore-round" and p._slot == 0:
                view = p.view
                target = (p._opt_set, p._opt[1], p.bounds.lower, p.bounds.upper)
                assert (
                    view.optimal_set, view.least_favored, view.cap_lower, view.cap_upper
                ) == target
                views.add((frozenset(view.optimal_set), view.least_favored))

        run(DpeSdiPolicy, ONE_PLAYER_SPEC, probe=probe)
        assert "comm" not in phases and "explore" in phases
        assert len(views) > 1

    def test_single_player_leaves_its_warmup_winner(self):
        """With M = 1 no follower can take a probe for the park, so the leader probes.

        On ``ONE_PLAYER_SPEC`` the warm-up puts arm 0 (mean 0.55) ahead of
        the best arm, arm 1 (mean 0.6).
        """
        least, arms = [], set()

        def probe(t, policies, counts):
            p = policies[0]
            if p._mode == "explore-round":
                least.append(p.view.least_favored)
                arms.update(counts)

        trace = run(DpeSdiPolicy, ONE_PLAYER_SPEC, probe=probe)
        assert least[0] == 0 and least[-1] == 1
        assert arms == set(range(ONE_PLAYER_SPEC.num_arms))
        assert trace.optimal_mask.sum() > ONE_PLAYER_SPEC.horizon // 3

    def test_views_synchronized_outside_comm(self):
        """Every player holds the same view at each of the leader's 1,151
        round starts."""
        spec = make_spec(horizon=4000)
        compared, desync = [], []

        def probe(t, policies, counts):
            views = views_at_leader_round_start(policies)
            if views is not None:
                compared.append(t)
                if len(views) > 1:
                    desync.append(t)

        run(DpeSdiPolicy, spec, probe=probe)
        assert desync == []
        assert len(compared) >= 1_151

    @pytest.mark.parametrize(
        "spec, round_starts",
        [
            (SEED_47_SPEC, 885),
            (EnvSpec(7, 2, (0.58, 0.93, 0.15, 0.95, 0.46, 0.16, 0.78),
                     (2, 2, 2, 2, 1, 1, 1), 2991, feedback="sdi", seed=54), 1_400),
            (SEED_63_SPEC, 552),
        ],
        ids=["seed-47", "seed-54", "seed-63"],
    )
    def test_views_agree_from_single_arm_views(self, spec, round_starts):
        """Runs whose views put every player on one arm stay in sync at
        each of the leader's round starts."""
        compared, desync = [], []

        def probe(t, policies, counts):
            views = views_at_leader_round_start(policies)
            if views is not None:
                compared.append(t)
                if len(views) > 1:
                    desync.append(t)

        run(DpeSdiPolicy, spec, probe=probe)
        assert desync == []
        assert len(compared) >= round_starts

    def test_no_false_comm_detection(self):
        """Followers only flag a broadcast when the leader really parked."""
        spec = make_spec(horizon=4000)
        bad = []

        def probe(t, policies, counts):
            leader = next((p for p in policies if p.rank == 0), None)
            if leader is None or leader._mode != "explore-round":
                return
            for p in policies:
                if p.rank not in (None, 0) and p._pending and not leader._pending:
                    bad.append(t)

        run(DpeSdiPolicy, spec, probe=probe)
        assert bad == []

    @pytest.mark.parametrize(
        "spec, parking_rounds, single_arm",
        [(make_spec(), 10, False), (SEED_47_SPEC, 10, False), (SEED_63_SPEC, 2, True)],
        ids=["make-spec", "seed-47", "single-arm-seed-63"],
    )
    def test_parking_round_keeps_the_plan(self, spec, parking_rounds, single_arm):
        """From warm-up on, every player plays in each slot the arm that the
        plan it held when its stretch began gives that slot. A follower that
        sees the park keeps its round's planned arms, and every player starts
        each broadcast in the same slot. The run has at least
        ``parking_rounds`` parking rounds; ``single_arm`` says whether the
        leader parks in a single-arm view, where it leaves the arm to signal."""
        num_players = spec.num_players
        held = {}  # rank -> (first slot, plan) of the player's current stretch
        slots = Counter()  # mode -> slots checked against a held plan
        rounds = {}  # slot -> per player (rank, leader parked, planned, played)
        single_arm_parks = 0
        broadcasts = {}  # rank -> slots at which its broadcasts started

        class Logged(DpeSdiPolicy):
            def next_action(self, t):
                nonlocal single_arm_parks
                arm = super().next_action(t)
                mode = self._mode
                if mode in ("rally", "orthogonalize"):
                    return arm
                if held.get(self.rank, (None,))[0] != self._start:
                    assert self._start == t
                    held[self.rank] = (t, list(self._plan))
                    if mode == "comm-broadcast":
                        broadcasts.setdefault(self.rank, []).append(t)
                    elif mode == "explore-round" and self._leader and self._pending:
                        single_arm_parks += self._single_arm
                start, plan = held[self.rank]
                assert arm == plan[t - start]
                slots[mode] += 1
                if mode == "explore-round":
                    table = self._plans[(self.rank + start) % num_players][0]
                    rounds.setdefault(t, []).append(
                        (self.rank, self._leader and self._pending, table[t - start], arm)
                    )
                return arm

        # Followers ride their rounds in ``run``; the naive loop steps them.
        naive(Logged, spec)
        assert set(slots) == {"warmup", "bootstrap-park", "comm-broadcast", "explore-round"}
        assert (single_arm_parks > 0) == single_arm
        parking = [slot for slot in rounds.values() if any(row[1] for row in slot)]
        assert len(parking) >= parking_rounds * num_players
        for slot in parking:
            assert len(slot) == num_players
            for rank, _, planned, arm in slot:
                assert rank == 0 or arm == planned
        assert len(broadcasts) == num_players
        assert len({tuple(starts) for starts in broadcasts.values()}) == 1

    @pytest.mark.parametrize(
        "changes",
        [
            dict(num_arms=3, num_players=1, means=(0.5, 0.7, 0.3), capacities=(1, 1, 1)),
            dict(num_players=4),
            dict(means=(0.6, 0.6, 0.6, 0.3, 0.3), capacities=(1, 2, 1, 1, 1)),
            dict(num_arms=4, means=(0.8, 0.5, 0.4, 0.2), capacities=(3, 1, 2, 1)),
            # Brackets close early here, so the closed-bracket skip runs.
            dict(
                num_arms=9, num_players=6, means=SYNTHETIC_SPEC.means,
                capacities=SYNTHETIC_SPEC.capacities, horizon=5000, seed=0,
            ),
        ],
        ids=[
            "one-player", "players-one-below-arms", "tied-means",
            "capacity-equals-players", "synthetic-0.025",
        ],
    )
    def test_cached_state_matches_recomputation(self, changes):
        """Whatever the caches skip recomputing would come out the same.

        At every leader round start the cached means, arm order, assignment,
        bounds and probe set equal a fresh computation. A round right after a
        broadcast reuses the probe set drawn up before the park, at the budget
        of that update's slot.
        """
        spec = make_spec(**{"horizon": 3000, **changes})
        num_players, num_arms = spec.num_players, spec.num_arms
        checked = Counter()
        last_mode = {}

        class Counted(DpeSdiPolicy):
            def _leader_update(self):
                stats, bounds, order = self.stats, self.bounds, self._order
                closed = [
                    k for k in set(self._plan)
                    if stats.ue_count[k] and bounds.lower[k] == bounds.upper[k]
                ]
                self.budget_slot = self._start + self._len
                super()._leader_update()
                checked["oracle reuses"] += self._order is order
                # A closed bracket whose new samples reached no update.
                checked["bracket skips"] += sum(
                    self._bracket_inputs[k] != (stats.ie_count[k], stats.ue_count[k])
                    for k in closed
                )

        def probe(t, policies, counts):
            for p in policies:
                after_broadcast = last_mode.get(p.rank) == "comm-broadcast"
                last_mode[p.rank] = p._mode
                if p._mode != "explore-round" or p._slot != 0:
                    continue
                profile = recover_profile(p.view, num_players)
                prefix = list(itertools.accumulate(profile))
                ue_arms = sorted(
                    k for k in p.view.optimal_set
                    if p.view.cap_lower[k] != p.view.cap_upper[k]
                )
                assert p._ue_arms == ue_arms
                rotation = [
                    rotation_arm(p.rank, p._start + s, prefix)
                    for s in range(num_players)
                ]
                if p.rank != 0:
                    assert p._plan == rotation + ue_arms
                    assert p._limits == (
                        None if len(p.view.optimal_set) == 1
                        else [profile[a] for a in rotation] + [num_players] * len(ue_arms)
                    )
                elif not p._pending:
                    # A probe replaces only a slot of the least-favored arm.
                    assert p._plan[num_players:] == ue_arms
                    for planned, arm in zip(p._plan, rotation):
                        assert planned == arm or (
                            arm == p.view.least_favored and planned in p._explore_set
                        )
                checked["plans"] += 1
                if p.rank != 0:
                    continue
                stats, bounds = p.stats, p.bounds
                mu = [stats.mu_hat(k) for k in range(num_arms)]
                assert p._mu == mu
                order = sorted(range(num_arms), key=lambda k: (-mu[k], k))
                assert p._order == order
                opt = oracle(mu, bounds.lower, num_players)
                assert p._opt == (opt.profile.counts, opt.least_favored)
                fresh = copy.deepcopy(bounds)
                for k in range(num_arms):
                    if stats.ue_count[k] > 0:
                        update_capacity_bounds(stats, k, fresh, p.delta)
                assert (fresh.lower, fresh.upper) == (bounds.lower, bounds.upper)
                checked["leader"] += 1
                # The probe set was drawn up at the leader's last update.
                budget = klucb_budget(p.budget_slot)
                least = opt.least_favored
                assert p._explore_set == [
                    k for k in range(num_arms)
                    if opt.profile.counts[k] == 0
                    and klucb_at_least(mu[k], stats.ie_count[k], budget, mu[least])
                ]
                checked["probe sets"] += 1
                checked["probe sets after a broadcast"] += after_broadcast

        run(Counted, spec, probe=probe)
        assert min(checked[key] for key in ("leader", "plans", "probe sets")) > 10
        assert (checked["probe sets after a broadcast"] > 0) == (num_players > 1)
        if num_arms == 9:
            assert min(checked["oracle reuses"], checked["bracket skips"]) > 10

    def test_converges_on_easy_instance(self):
        spec = make_spec(horizon=4000)
        trace = run(DpeSdiPolicy, spec)
        assert trace.optimal_fraction(800) > 0.9

    def test_individual_estimates_unbiased(self):
        spec = make_spec(horizon=6000, seed=9)
        grabbed = {}

        def probe(t, policies, counts):
            leader = next((p for p in policies if p.rank == 0), None)
            if leader is not None:
                grabbed["leader"] = leader

        run(DpeSdiPolicy, spec, probe=probe)
        leader = grabbed["leader"]
        for arm in range(spec.num_arms):
            if leader.stats.ie_count[arm] >= 300:
                mu_hat = leader.stats.ie_sum[arm] / leader.stats.ie_count[arm]
                assert mu_hat == pytest.approx(spec.means[arm], abs=0.08)


class TestSchedule:
    @pytest.mark.parametrize(
        "spec", [make_spec(), SEED_63_SPEC], ids=["make-spec", "single-arm-seed-63"]
    )
    def test_schedule_is_pure_in_every_mode(self, spec):
        """Asked twice in any slot, a player answers the same and keeps its
        state, and a stated cycle starts with the arm the player plays.

        The naive loop steps every slot, so the check runs in every mode.
        """
        modes = set()

        class Checked(DpeSdiPolicy):
            def next_action(self, t):
                before = pickle.dumps(vars(self))
                answer = self.schedule(t)
                assert self.schedule(t) == answer
                assert pickle.dumps(vars(self)) == before, (t, self._mode)
                arm = super().next_action(t)
                assert answer is None or answer[1][0] == arm
                modes.add((self._mode, self._leader, answer is None))
                return arm

        naive(Checked, spec)
        # Nobody leads before the ranks are in. Then the leader is stepped, and
        # a follower states its rounds until it sees a park.
        stepped = {"warmup", "bootstrap-park", "comm-broadcast", "explore-round"}
        assert modes == (
            {("rally", False, True), ("orthogonalize", False, True)}
            | {(mode, leader, True) for mode in stepped for leader in (False, True)}
            | {("explore-round", False, False)}
        )

    def test_statements_stop_one_round_past_a_span(self):
        """At K = 40, M = 30 a follower's lcm(L, M) cycle can be longer than
        a ride. No statement is then longer than ``_SPAN`` plus one round,
        and such a statement does not repeat."""
        rng = np.random.default_rng(5)
        means = tuple(float(x) for x in np.round(rng.uniform(0.05, 0.95, 40), 3))
        spec = EnvSpec(40, 30, means, tuple(int(c) for c in rng.integers(1, 4, 40)), 3000,
                       feedback=Feedback.SDI, seed=1)
        stated = []  # (positions, n, round length, lcm(L, M))

        class Stating(DpeSdiPolicy):
            def schedule(self, t):
                answer = super().schedule(t)
                if answer is not None:
                    length, players = self._len, self.num_players
                    stated.append((len(answer[1]), answer[0], length, math.lcm(length, players)))
                return answer

        run(Stating, spec)
        long = [s for s in stated if s[3] > engine._SPAN + s[2]]
        assert len(stated) > 100 and len(long) > 10
        assert all(positions < engine._SPAN + length for positions, _, length, _ in stated)
        assert all(n == positions for positions, n, _, _ in long)

    def test_followers_ride_the_synthetic_run(self):
        """At seed 0 of ``synthetic-0.025``, at the full horizon, followers
        are stepped in fewer than 20,000 slots of the 500,000 they play."""
        spec = load_scenario("synthetic-0.025").env_spec("dpe-sdi", 0)
        stepped = Counter()

        class Counted(DpeSdiPolicy):
            def next_action(self, t):
                stepped[self] += 1
                return super().next_action(t)

        run(Counted, spec)
        assert [stepped[p] for p in stepped if p.rank == 0] == [spec.horizon]
        assert sum(stepped[p] for p in stepped if p.rank != 0) < 20_000


GOLDEN = json.loads((Path(__file__).parent / "golden_traces.json").read_text())
# Recordings of an EnvSpec rather than of a preset, by recording name.
GOLDEN_SPECS = {"single-arm-seed-63": SEED_63_SPEC, "one-player": ONE_PLAYER_SPEC}


class TestGoldenTrace:
    """Runs against recorded traces.

    dpe-sdi runs each preset at seed 0 and horizon 20,000. Its phase events
    were recorded while the players still chose every slot's arm one slot at
    a time, so a change to how rounds are planned that drifts fails here in
    seconds; its regrets and optimal slots were recorded once followers that
    see the park kept their planned arms. Two dpe-sdi recordings run an
    EnvSpec of ``GOLDEN_SPECS`` whole, and pin paths no preset reaches at low
    seeds: the seed-63 leader leaves the park arm of a single-arm view, and
    a lone leader applies its own bits. They were recorded while warm-up,
    park and broadcast still chose their arms slot by slot, and
    ``one-player`` again once a lone leader draws its probe coin at round
    slot 0 (it has no follower to mislead). sic-sda runs
    each preset's full horizon at seed 0: on ``synthetic-0.025`` every player
    commits long before the horizon, on ``cellular-5g4g`` committed players
    sit beside explorers. Each case pins the checkpoint regrets, player 0's
    phase transitions and the number of optimal slots.
    """

    @staticmethod
    def check(algorithm, name):
        """Run the recording ``name``: an EnvSpec of ``GOLDEN_SPECS`` or a preset."""
        recorded = GOLDEN[algorithm][name]
        source = GOLDEN_SPECS.get(name, name)
        if isinstance(source, EnvSpec):
            factory = policy_factory(algorithm, None)
            spec, checkpoints = source, default_checkpoints(source.horizon)
        else:
            scenario = dataclasses.replace(
                load_scenario(source), horizon=recorded["horizon"], checkpoints=[]
            )
            factory = policy_factory(algorithm, scenario.delta)
            spec, checkpoints = scenario.env_spec(algorithm, 0), scenario.checkpoints
        trace = run(factory, spec, checkpoints=checkpoints)
        assert list(trace.checkpoints) == recorded["checkpoints"]
        assert list(trace.checkpoint_regret) == recorded["checkpoint_regret"]
        assert [list(e) for e in trace.phase_events] == recorded["phase_events"]
        assert int(trace.optimal_mask.sum()) == recorded["optimal_slots"]

    @pytest.mark.parametrize("name", sorted(GOLDEN["dpe-sdi"]))
    def test_trace_matches_recording(self, name):
        self.check("dpe-sdi", name)

    @pytest.mark.parametrize("name", sorted(GOLDEN["sic-sda"]))
    def test_sic_trace_matches_recording(self, name):
        self.check("sic-sda", name)
