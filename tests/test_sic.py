import pickle
import re

import numpy as np
import pytest

from shareable_bandits.engine import PublicEnvInfo, run
from shareable_bandits.model import EnvSpec, Feedback, optimal_profile_for
from shareable_bandits.protocol import (
    NUM_FLAG_STEPS,
    LeaderDecision,
    ProtocolCorruptionError,
    decode_bits,
    encode_stat,
)
from shareable_bandits.scenarios import load_scenario
from shareable_bandits.sic import (
    SicSdaPolicy,
    anchored_arm,
    apply_decision,
    comm_seat,
    evaluate_accept_reject,
    rank_assign_arm,
    upload_bits,
)

from oracles import naive_run, simulate_bit_upload, simulate_rank_assignment


def make_spec(**kw):
    base = dict(
        num_arms=5,
        num_players=3,
        means=(0.9, 0.7, 0.5, 0.3, 0.1),
        capacities=(2, 1, 2, 1, 1),
        horizon=20000,
        feedback=Feedback.SDA,
        seed=2,
    )
    base.update(kw)
    return EnvSpec(**base)


class TestBitEncoding:
    def test_value_five_three_bits(self):
        assert encode_stat(5, 3) == [1, 0, 1]
        arms, decoded = simulate_bit_upload(5, 3)
        assert arms == [0, 1, 0]
        assert decoded == 5

    def test_zero_is_all_zero_bits(self):
        assert encode_stat(0, 4) == [0, 0, 0, 0]
        assert decode_bits([0, 0, 0, 0]) == 0

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            nbits = int(rng.integers(1, 18))
            value = int(rng.integers(0, 1 << nbits))
            assert decode_bits(encode_stat(value, nbits)) == value

    def test_width_covers_scaled_sums(self):
        for p in range(1, 11):
            for m in (1, 2, 6, 18):
                assert (m << p) < (1 << upload_bits(p, m))

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            encode_stat(8, 3)


class TestRankAssign:
    def test_hand_example_k3(self):
        # claims 1 and 2 of a 3-arm system share arm 2 at sweep slot 3 only
        ranks, totals, transcript = simulate_rank_assignment(3, [1, 2])
        assert ranks == [1, 2]
        assert totals == [2, 2]
        shared_slots = [s for s, arms in enumerate(transcript, start=1)
                        if len(set(arms)) < len(arms)]
        assert shared_slots == [3]
        assert transcript[2] == (2, 2)

    def test_policy_rule_matches_simulator(self):
        for num_arms in (3, 5, 9):
            for ext in range(1, num_arms):
                for slot in range(1, 2 * num_arms - 1):
                    got = rank_assign_arm(ext, slot, num_arms)
                    if slot <= 2 * ext or slot >= num_arms + ext:
                        assert got == ext - 1
                    else:
                        assert got == slot - ext - 1

    def test_single_player(self):
        ranks, totals, _ = simulate_rank_assignment(6, [4])
        assert ranks == [1]
        assert totals == [1]

    def test_random_claims_give_permutations(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            num_arms = int(rng.integers(3, 10))
            m = int(rng.integers(1, num_arms))
            claims = sorted(rng.choice(num_arms - 1, size=m, replace=False) + 1)
            ranks, totals, _ = simulate_rank_assignment(num_arms, list(claims))
            assert sorted(ranks) == list(range(1, m + 1))
            assert totals == [m] * m
            # lower claims receive lower ranks
            assert ranks == sorted(ranks)


class TestAnchoredArm:
    def test_prefix_inequality(self):
        # active arms (0, 1) with lower bounds (3, 2): spare units (2, 1)
        assert anchored_arm(3, [0, 1], [3, 2]) == 0
        assert anchored_arm(4, [0, 1], [3, 2]) == 0
        assert anchored_arm(5, [0, 1], [3, 2]) == 1

    def test_rank_beyond_capacity_is_corruption(self):
        with pytest.raises(ProtocolCorruptionError):
            anchored_arm(6, [0, 1], [3, 2])


class TestAcceptReject:
    def test_fresh_bounds_accept_nothing(self):
        active = [0, 1, 2]
        mu = {0: 0.5, 1: 0.5, 2: 0.5}
        pulls = {k: 10 for k in active}
        d = evaluate_accept_reject(mu, pulls, active, 3, [1] * 3, [3] * 3,
                                   set(), 10**5)
        assert d.accepted == set() and d.rejected == set()
        assert d.least_favored is None

    def test_learned_separated_arm_accepted(self):
        active = [0, 1]
        mu = {0: 0.9, 1: 0.1}
        pulls = {0: 10**5, 1: 10**5}
        # arm 0 learned with capacity 3 == player count
        d = evaluate_accept_reject(mu, pulls, active, 3, [3, 1], [3, 3],
                                   {0}, 10**5)
        assert 0 in d.accepted
        assert 1 in d.rejected  # dominated: lower bound 3 >= 3 players

    def test_single_arm_becomes_least_favored(self):
        d = evaluate_accept_reject({4: 0.5}, {4: 5}, [4], 2, [0, 0, 0, 0, 2],
                                   [0, 0, 0, 0, 4], set(), 10**5)
        assert d.least_favored == 4

    def test_least_favored_requires_capacity(self):
        d = evaluate_accept_reject({4: 0.5}, {4: 5}, [4], 2, [0, 0, 0, 0, 1],
                                   [0, 0, 0, 0, 4], set(), 10**5)
        assert d.least_favored is None


class TestApplyDecision:
    def test_high_ranks_exploit_accepted_arm(self):
        d = LeaderDecision(accepted={2}, rejected=set())
        lower = [1, 1, 2, 1]
        results = [apply_decision(r, d, [0, 1, 2, 3], 5, lower) for r in (4, 5)]
        for exploit, active, players, _ in results:
            assert exploit == 2
            assert players == 3
            assert active == [0, 1, 3]

    def test_low_ranks_stay_active(self):
        d = LeaderDecision(accepted={2}, rejected={3})
        exploit, active, players, alloc = apply_decision(1, d, [0, 1, 2, 3], 5, [2, 1, 2, 1])
        assert exploit is None
        assert active == [0, 1]
        assert players == 3
        assert alloc == {0: 2, 1: 1}

    def test_least_favored_takes_everyone(self):
        d = LeaderDecision(least_favored=1)
        for rank in (1, 2, 3):
            exploit, active, players, _ = apply_decision(rank, d, [0, 1], 3, [1, 3])
            assert exploit == 1
            assert active == [0]

    def test_allocation_distributes_surplus(self):
        d = LeaderDecision()
        _, _, _, alloc = apply_decision(1, d, [0, 1], 5, [3, 2])
        assert alloc == {0: 3, 1: 2}

    def test_overfull_allocation_is_corruption(self):
        d = LeaderDecision()
        with pytest.raises(ProtocolCorruptionError):
            apply_decision(1, d, [0, 1], 6, [3, 2])


def grab_final_policies(spec):
    grabbed = {}

    def probe(t, policies, counts):
        grabbed["policies"] = list(policies)

    trace = run(SicSdaPolicy, spec, probe=probe)
    return trace, grabbed["policies"]


class TestEndToEnd:
    def test_init_gives_rank_permutation_and_M(self):
        spec = make_spec(horizon=3000)
        _, policies = grab_final_policies(spec)
        assert sorted(p.rank for p in policies) == [1, 2, 3]
        assert all(p.num_players == 3 for p in policies)

    def test_phase_roles_agree(self):
        """All active players compute identical phase boundaries."""
        spec = make_spec(horizon=8000)
        bad = []

        def probe(t, policies, counts):
            states = {
                (p._mode, p._slot, p.phase_num, tuple(p.active), p.active_players)
                for p in policies
                if p.rank is not None and p.exploit_arm is None
            }
            if len(states) > 1:
                bad.append((t, states))

        run(SicSdaPolicy, spec, probe=probe)
        assert bad == []

    def test_conservation_of_players(self):
        spec = make_spec(horizon=20000)
        bad = []

        def probe(t, policies, counts):
            n_active = sum(1 for p in policies if p.exploit_arm is None)
            n_exploit = sum(1 for p in policies if p.exploit_arm is not None)
            if n_active + n_exploit != spec.num_players:
                bad.append(t)

        run(SicSdaPolicy, spec, probe=probe)
        assert bad == []

    def test_exploiters_match_capacity(self):
        """Players exploiting an accepted arm fill exactly its capacity."""
        spec = make_spec(horizon=20000)
        _, policies = grab_final_policies(spec)
        exploiting = [p for p in policies if p.exploit_arm is not None]
        assert exploiting, "no arm was certified within the horizon"
        per_arm: dict[int, int] = {}
        for p in exploiting:
            per_arm[p.exploit_arm] = per_arm.get(p.exploit_arm, 0) + 1
        leader = next(p for p in policies if p.rank == 1)
        for arm, n in per_arm.items():
            if arm in leader._seen.accepted:
                assert n == spec.capacities[arm]

    def test_upload_merges_follower_sums(self):
        spec = make_spec(horizon=4000)
        _, policies = grab_final_policies(spec)
        leader = next(p for p in policies if p.rank == 1)
        # after a few phases the leader holds more samples than it pulled alone
        assert sum(leader.stats.ie_count) > 0
        rotating = min(spec.num_players, spec.num_arms)
        first_phase_share = 2 * rotating
        assert max(leader.stats.ie_count) >= first_phase_share

    def test_upload_is_lossless(self):
        """Each upload adds to the leader's statistics exactly what the
        rotating players summed: per arm, their total over the allocation,
        and 2^p pulls per rotating player."""
        spec = make_spec(
            num_players=4, capacities=(2, 2, 1, 1, 1), horizon=20000,
            means=(0.9, 0.8, 0.6, 0.5, 0.2),
        )
        pending = []
        checked = []

        def probe(t, policies, counts):
            leader = next((p for p in policies if p.rank == 1), None)
            if leader is None or leader.exploit_arm is not None:
                return
            if leader._mode == "comm-upload" and not pending:
                rotating = [p for p in policies
                            if p.exploit_arm is None
                            and p.rank <= min(len(p.active), p.active_players)]
                expected = {}
                for k in leader.active:
                    total = sum(p._phase_sums[k] for p in rotating)
                    expected[k] = (
                        leader.stats.ie_sum[k] + total / leader.alloc.get(k, 1),
                        leader.stats.ie_count[k] + (len(rotating) << leader.phase_num),
                    )
                pending.append(expected)
            elif leader._mode != "comm-upload" and pending:
                for k, (ie_sum, ie_count) in pending.pop().items():
                    assert (leader.stats.ie_sum[k], leader.stats.ie_count[k]) == (
                        ie_sum, ie_count), (t, k)
                checked.append(t)

        run(SicSdaPolicy, spec, probe=probe)
        assert len(checked) >= 3

    def test_adapter_identical_traces_under_both_feedbacks(self):
        spec_sda = make_spec(horizon=6000)
        spec_sdi = make_spec(horizon=6000, feedback=Feedback.SDI)
        t1 = run(SicSdaPolicy, spec_sda, checkpoints=[1000, 6000])
        t2 = run(SicSdaPolicy, spec_sdi, checkpoints=[1000, 6000])
        assert t1.checkpoint_regret == t2.checkpoint_regret
        assert (t1.optimal_mask == t2.optimal_mask).all()

    def test_single_player(self):
        spec = make_spec(
            num_players=1, capacities=(1, 1, 1, 1, 1), horizon=4000,
            means=(0.9, 0.4, 0.3, 0.2, 0.1),
        )
        trace = run(SicSdaPolicy, spec)
        assert trace.optimal_fraction(500) > 0.9

    def test_one_player_takes_no_communication_slot(self):
        spec = make_spec(
            num_players=1, capacities=(1, 1, 1, 1, 1), horizon=4000,
            means=(0.9, 0.4, 0.3, 0.2, 0.1),
        )
        trace, (policy,) = grab_final_policies(spec)
        assert policy.phase_num >= 3  # several blocks were run
        assert "comm" not in {phase for _, phase in trace.phase_events}

    def test_broadcast_keeps_bounds_synchronized(self):
        spec = make_spec(horizon=15000)
        bad = []

        def probe(t, policies, counts):
            leader = next((p for p in policies if p.rank == 1), None)
            if leader is None or leader._mode != "explore-individual":
                return
            if leader._slot != 0:
                return
            for p in policies:
                if p.exploit_arm is None and p.rank is not None:
                    for k in p.active:
                        if (p.lower[k], p.upper[k]) != (
                            leader.bounds.lower[k], leader.bounds.upper[k]
                        ):
                            bad.append((t, p.rank, k))

        run(SicSdaPolicy, spec, probe=probe)
        assert bad == []


class TestSchedule:
    def test_schedule_is_pure_in_every_mode(self):
        """Asked twice in any slot, a player answers the same and keeps its state.

        The naive loop steps every slot, so the check runs in every mode.
        """
        spec = make_spec(horizon=6000)
        modes = set()

        class Checked(SicSdaPolicy):
            def next_action(self, t):
                before = pickle.dumps(vars(self))
                answer = self.schedule(t)
                assert self.schedule(t) == answer
                assert pickle.dumps(vars(self)) == before, (t, self._mode)
                modes.add((self._mode, answer is None))
                return super().next_action(t)

        opt = optimal_profile_for(spec)
        naive_run(
            Checked, lambda rng: PublicEnvInfo(spec.num_arms, spec.horizon, spec.feedback, rng),
            spec, False, opt.value, opt.profile.counts, [],
        )
        blocks = {"rank-assign", "explore-individual", "explore-united", "comm-upload",
                  "comm-broadcast", "exploit"}
        assert modes == {("orthogonalize", True)} | {(m, False) for m in blocks}


class TestPlannedStages:
    """The rank sweep and communication are planned stages, taken as engine blocks."""

    def test_cellular_steps_only_orthogonalization(self):
        """At seed 0 of ``cellular-5g4g`` only orthogonalization is stepped."""
        scenario = load_scenario("cellular-5g4g")
        spec = scenario.env_spec("sic-sda", 0)
        stepped = []

        class Counted(SicSdaPolicy):
            def next_action(self, t):
                stepped.append(self._mode)
                return super().next_action(t)

        trace = run(Counted, spec, checkpoints=scenario.checkpoints)
        assert set(stepped) == {"orthogonalize"}
        assert len(stepped) == 340 * spec.num_players
        assert trace.final_regret == 626344.9494259284

    def test_a_corrupt_broadcast_names_its_block(self):
        """A follower whose heard bits decode to two least-favored arms raises
        from the end of the stage, inside ``observe_block``, and the error
        names the block's slots, the player and its phase."""
        spec = make_spec(horizon=6000)
        blocks = {}  # player -> (first slot, slots) of its last block

        class Corrupted(SicSdaPolicy):
            def __init__(self, player_id, env):
                super().__init__(player_id, env)
                self.player_id = player_id

            def schedule(self, t):
                self.asked = t  # the last query before a block is at its start
                return super().schedule(t)

            def observe_block(self, outcomes):
                blocks[self.player_id] = (self.asked, len(outcomes))
                super().observe_block(outcomes)

            def _end_stage(self):
                k_t = len(self.active)
                news = [i for i, bit in enumerate(self._inbox[:k_t]) if bit]
                if self._mode == "comm-broadcast" and self._stage_start and len(news) > 1:
                    # Raise the least-favored flag of every arm with news.
                    for n, _ in enumerate(news):
                        self._inbox[k_t + n * (NUM_FLAG_STEPS + 2 * self._bound_nbits) + 2] = 1
                super()._end_stage()

        with pytest.raises(ProtocolCorruptionError) as raised:
            run(Corrupted, spec)
        message = str(raised.value)
        found = re.fullmatch(
            r"two different least-favored signals at slots (\d+)-(\d+), "
            r"player (\d+) in phase 'comm'",
            message,
        )
        assert found, message
        first, last, player = map(int, found.groups())
        start, slots = blocks[player]
        assert (first, last) == (start, start + slots - 1)


class TestCommunicationSeats:
    """Who sits where while a speaker sends bits to a listener."""

    def test_read_arm_holds_only_the_signalling_pair(self):
        """Stepped slot by slot, so ``next_action`` shows each player's arm.

        Arms 0 and 1 take 3 players each, so once the weak arms go the
        4 players overflow 2 arms and anchors land on the read arm.
        """
        spec = make_spec(
            num_arms=5, num_players=4, capacities=(3, 3, 1, 1, 1),
            means=(0.9, 0.8, 0.3, 0.2, 0.1),
        )
        rows: dict[int, list] = {}

        class Recorded(SicSdaPolicy):
            def next_action(self, t):
                pair = None
                if self._mode in ("comm-upload", "comm-broadcast"):
                    pair = self._pairs[self._slot // self._stage_len]
                context = (self._mode, pair, self.active[0], len(self.active),
                           self.active_players)
                displaced = self._anchor is not None and self._anchor == self.active[0]
                arm = super().next_action(t)
                active_leader = self.rank == 1 and self.exploit_arm is None
                rows.setdefault(t, []).append(
                    (self.rank, arm, context if active_leader else None, displaced)
                )
                return arm

        opt = optimal_profile_for(spec)
        naive_run(
            Recorded, lambda rng: PublicEnvInfo(spec.num_arms, spec.horizon, spec.feedback, rng),
            spec, False, opt.value, opt.profile.counts, [],
        )
        checked = {"comm-upload": 0, "comm-broadcast": 0}
        displaced_slots = 0
        for t, players in rows.items():
            context = next((c for _, _, c, _ in players if c is not None), None)
            if context is None or context[0] not in checked:
                continue
            mode, (speaker, listener), read_arm, k_t, m_t = context
            # Followers upload to the leader; the leader broadcasts.
            assert (listener if mode == "comm-upload" else speaker) == 1
            assert next(a for r, a, _, _ in players if r == listener) == read_arm
            on_read_arm = {r for r, a, _, _ in players if a == read_arm}
            assert on_read_arm <= {speaker, listener}, (t, mode, on_read_arm)
            # Idle rotating players keep distinct exploration arms.
            rotating = min(k_t, m_t)
            idle = [a for r, a, _, _ in players
                    if r not in (speaker, listener) and r <= rotating]
            assert len(idle) == len(set(idle)), (t, mode, idle)
            checked[mode] += 1
            displaced_slots += any(d for _, _, _, d in players)
        assert min(checked.values()) > 0
        assert displaced_slots > 0


class TestUnitedSeats:
    def test_a_rank_above_the_upper_bound_holds_its_seat(self):
        """A rally takes ranks up to the arm's upper bound; the rest keep their seats.

        Stepped slot by slot, so ``next_action`` shows each player's arm.
        """
        spec = make_spec(num_players=4, capacities=(2, 1, 2, 1, 1), horizon=6000)
        rows = []

        class Recorded(SicSdaPolicy):
            def next_action(self, t):
                arm = super().next_action(t)
                if self._mode == "explore-united":
                    rally = self._ue_arms[self._slot % len(self._ue_arms)]
                    seat = comm_seat(self.rank, self.active, self.lower)
                    rows.append((self.rank, self.upper[rally], rally, seat, arm))
                return arm

        opt = optimal_profile_for(spec)
        naive_run(
            Recorded, lambda rng: PublicEnvInfo(spec.num_arms, spec.horizon, spec.feedback, rng),
            spec, False, opt.value, opt.profile.counts, [],
        )
        seated = 0
        for rank, upper, rally, seat, arm in rows:
            if rank <= upper:
                assert arm == rally
            else:
                assert arm == seat
                seated += seat != rally
        assert seated > 100
