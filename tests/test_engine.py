import dataclasses

import numpy as np
import pytest
from oracles import naive_run

from shareable_bandits import engine
from shareable_bandits.baselines import (
    FixedArmPolicy,
    HighestRewardPolicy,
    IdlestArmPolicy,
    fixed_profile_factory,
)
from shareable_bandits.engine import (
    InvalidActionError,
    Observation,
    PublicEnvInfo,
    run,
)
from shareable_bandits.model import EnvSpec, Feedback, optimal_profile_for
from shareable_bandits.protocol import ProtocolCorruptionError
from shareable_bandits.scenarios import ALGORITHMS
from shareable_bandits.sic import SicSdaPolicy


def make_spec(**kw):
    base = dict(
        num_arms=4,
        num_players=3,
        means=(0.9, 0.8, 0.7, 0.2),
        capacities=(2, 1, 2, 1),
        horizon=50,
        feedback=Feedback.SDI,
        seed=3,
    )
    base.update(kw)
    return EnvSpec(**base)


class RecordingPolicy:
    """Plays a scripted arm sequence and keeps everything it is shown."""

    def __init__(self, player_id, env, script):
        self.player_id = player_id
        self.env = env
        self.script = script
        self.seen: list[Observation] = []

    def next_action(self, t):
        return self.script[t % len(self.script)]

    def observe(self, obs):
        self.seen.append(obs)


def recording_factory(scripts, made):
    """Builds player i as a ``RecordingPolicy`` on ``scripts[i]`` and keeps it in ``made``."""

    def factory(i, env):
        made.append(RecordingPolicy(i, env, scripts[i]))
        return made[-1]

    return factory


def first_slot(spec, arms):
    """What each player observes in slot 0 of a run where player i plays ``arms[i]``."""
    made = []
    run(recording_factory([[a] for a in arms], made), dataclasses.replace(spec, horizon=1))
    return [p.seen[0] for p in made]


class TestStep:
    def test_shared_arm_same_reward_and_feedback(self):
        spec = make_spec(means=(1.0, 0.5, 0.5, 0.5), capacities=(1, 1, 1, 1))
        obs = first_slot(spec, [0, 0, 1])
        assert obs[0].reward == obs[1].reward == 1.0  # min(2,1)*1
        assert obs[0].count == 2 and obs[0].shared
        assert obs[2].count == 1 and not obs[2].shared

    def test_lone_player_zero_draw(self):
        spec = make_spec(means=(0.0, 0.5, 0.5, 0.5))
        obs = first_slot(spec, [0, 1, 2])
        assert obs[0].reward == 0.0
        assert obs[0].count == 1
        assert not obs[0].shared

    def test_reward_capped_by_count_not_capacity(self):
        # three players on an arm with spare capacity: factor is the count
        spec = make_spec(
            num_arms=4, num_players=3, means=(1.0, 0.1, 0.1, 0.1),
            capacities=(3, 1, 1, 1),
        )
        obs = first_slot(spec, [0, 0, 0])
        assert obs[0].reward == 3.0

    def test_sda_hides_count(self):
        spec = make_spec(feedback=Feedback.SDA)
        obs = first_slot(spec, [0, 0, 1])
        assert obs[0].count is None
        assert obs[0].shared
        assert obs[2].count is None
        assert not obs[2].shared

    def test_out_of_range_action(self):
        spec = make_spec()
        with pytest.raises(InvalidActionError):
            first_slot(spec, [0, 1, 99])


class TestRun:
    def test_optimal_dummy_has_zero_regret(self):
        spec = make_spec(horizon=200)
        opt = optimal_profile_for(spec)
        trace = run(fixed_profile_factory(list(opt.profile.counts)), spec,
                    checkpoints=[100, 200])
        assert trace.final_regret == pytest.approx(0.0, abs=1e-9)
        assert trace.checkpoint_regret == (pytest.approx(0.0), pytest.approx(0.0))
        assert trace.optimal_mask.all()
        assert trace.optimal_fraction(50) == 1.0
        assert trace.optimal_fraction(0) == 0.0  # an empty window, not the whole run

    def test_worst_single_arm_regret_closed_form(self):
        spec = make_spec(horizon=300)
        opt = optimal_profile_for(spec)
        trace = run(lambda i, env: FixedArmPolicy(i, env, 3), spec)
        per_slot = opt.value - min(spec.num_players, spec.capacities[3]) * spec.means[3]
        assert trace.final_regret == pytest.approx(300 * per_slot)
        assert not trace.optimal_mask.any()

    def test_determinism_same_seed(self):
        spec = make_spec(horizon=400)

        def factory(i, env):
            return RecordingPolicy(i, env, [int(env.rng.integers(4)) for _ in range(40)])

        t1 = run(factory, spec, checkpoints=[50, 400])
        t2 = run(factory, spec, checkpoints=[50, 400])
        assert t1.checkpoint_regret == t2.checkpoint_regret
        assert (t1.optimal_mask == t2.optimal_mask).all()

    def test_run_matches_repeated_step(self):
        """Every player observes what ``oracles.naive_run`` shows it, slot by slot."""
        spec = make_spec(horizon=64)
        script = [0, 1, 2, 3, 2, 1]
        scripts = [script[i::3] for i in range(3)]
        ran, stepped = [], []
        run(recording_factory(scripts, ran), spec)
        opt = optimal_profile_for(spec)
        naive_run(
            recording_factory(scripts, stepped), lambda rng: None, spec, True,
            opt.value, opt.profile.counts, [],
        )
        for engine_policy, manual in zip(ran, stepped, strict=True):
            assert len(engine_policy.seen) == spec.horizon
            assert [dataclasses.astuple(o) for o in engine_policy.seen] == [
                dataclasses.astuple(o) for o in manual.seen
            ]

    def test_sda_flag_equals_sdi_count_rule(self):
        base = dict(horizon=120)
        spec_sdi = make_spec(**base)
        spec_sda = make_spec(feedback=Feedback.SDA, **base)

        def factory(i, env):
            return RecordingPolicy(i, env, [(i + t) % 4 for t in range(12)])

        seen = {}
        for spec in (spec_sdi, spec_sda):
            grabbed = []
            run(factory, spec, probe=lambda t, ps, c: grabbed.extend(ps) if t == 0 else None)
            seen[spec.feedback] = grabbed
        for p_sdi, p_sda in zip(seen[Feedback.SDI], seen[Feedback.SDA]):
            for o1, o2 in zip(p_sdi.seen, p_sda.seen):
                assert o2.shared == (o1.count > 1)
                assert o1.shared == o2.shared
                assert o1.reward == o2.reward

    def test_colocated_players_see_identical_observation(self):
        spec = make_spec(horizon=60)

        def factory(i, env):
            return RecordingPolicy(i, env, [0])

        grabbed = []
        run(factory, spec, probe=lambda t, ps, c: grabbed.extend(ps) if t == 0 else None)
        a, b, c = grabbed
        assert a.seen == b.seen == c.seen
        assert all(x is y is z for x, y, z in zip(a.seen, b.seen, c.seen))

    def test_observation_is_immutable(self):
        obs = first_slot(make_spec(), [0, 0, 1])[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            obs.reward = 0.0

    def test_observations_are_interned_per_run(self):
        """A run builds at most two observations per (arm, count), whatever T."""
        distinct = {}
        for horizon in (2_000, 20_000):
            seen = {}  # id -> observation, kept alive so no id is reused

            class Recording(HighestRewardPolicy):
                def observe(self, obs):
                    seen[id(obs)] = obs
                    super().observe(obs)

                def observe_block(self, outcomes):
                    for obs, _, _ in outcomes:
                        seen[id(obs)] = obs
                    super().observe_block(outcomes)

            spec = make_spec(horizon=horizon)
            run(Recording, spec)
            distinct[horizon] = len(seen)
        bound = 2 * spec.num_arms * spec.num_players
        assert distinct[2_000] == distinct[20_000] <= bound

    @pytest.mark.parametrize(
        "checkpoints", [[2.7, True, 10], [2.0], [True], [np.float64(10)]]
    )
    def test_rejects_non_integer_checkpoints(self, checkpoints):
        with pytest.raises(ValueError, match="checkpoints must be integers"):
            run(fixed_profile_factory([2, 1, 0, 0]), make_spec(horizon=10),
                checkpoints=checkpoints)

    def test_accepts_numpy_integer_checkpoints(self):
        trace = run(fixed_profile_factory([2, 1, 0, 0]), make_spec(horizon=10),
                    checkpoints=[np.int64(10), np.int32(5)])
        assert trace.checkpoints == (5, 10)

    def test_aborts_on_out_of_range_policy(self):
        spec = make_spec(horizon=10)
        with pytest.raises(
            InvalidActionError,
            match=r"arm index 7 out of range \[0, 4\) at slot 0, player 2 in phase 'exploit'",
        ):
            run(lambda i, env: FixedArmPolicy(i, env, 7 if i == 2 else 0), spec)

    def test_aborts_on_out_of_range_block_policy(self):
        # Player 1's answer at slot 8, and the start of the error message.
        strays = {
            (4, (7,)): r"arm index 7 out of range \[0, 4\)",
            (0, (1,)): r"schedule answer \(0, \(1,\)\) is malformed",
            (3, ()): r"schedule answer \(3, \(\)\) is malformed",
            (4, (1,), "x"): r"schedule answer \(4, \(1,\), 'x'\) is malformed",
            (4, (1,), True, 0): r"schedule answer \(4, \(1,\), True, 0\) is malformed",
            (4,): r"schedule answer \(4,\) is malformed",
            5: r"schedule answer 5 is malformed",
        }
        for answer, error in strays.items():

            class Stray:
                """States blocks of four slots; player 1 strays in the block at slot 8."""

                phase = "exploit"

                def __init__(self, player_id, env):
                    self.player_id = player_id

                def next_action(self, t):
                    return self.player_id

                def observe(self, obs):
                    pass

                def schedule(self, t):
                    if self.player_id == 1 and t == 8:
                        return answer
                    return 4 - t % 4, (self.player_id,)

                def observe_block(self, outcomes):
                    pass

            with pytest.raises(
                InvalidActionError, match=rf"^{error} at slot 8, player 1 in phase 'exploit'$"
            ):
                run(Stray, make_spec(horizon=20))

    @pytest.mark.parametrize(
        "blocks, where", [(False, "slot 7"), (True, "slots 5-9")], ids=["stepped", "block"]
    )
    def test_policy_error_names_slot_player_and_phase(self, blocks, where):
        class Failing:
            """Player 2 raises on the outcome of slot 7; blocks are slots 5k to 5k + 4."""

            def __init__(self, player_id, env):
                self.player_id = player_id
                self.phase = "listen"
                self._t = 0

            def next_action(self, t):
                self._t = t
                return self.player_id

            def observe(self, obs):
                if self.player_id == 2 and self._t == 7:
                    raise ProtocolCorruptionError("lost sync")

        class FailingInBlocks(Failing):
            def schedule(self, t):
                return 5 - t % 5, (self.player_id,)

            def observe_block(self, outcomes):
                n = sum(slots for _, _, slots in outcomes)
                if self.player_id == 2 and self._t <= 7 < self._t + n:
                    raise ProtocolCorruptionError("lost sync")
                self._t += n

        with pytest.raises(
            ProtocolCorruptionError,
            match=rf"^lost sync at {where}, player 2 in phase 'listen'$",
        ):
            run(FailingInBlocks if blocks else Failing, make_spec(horizon=20))

    def test_phase_events_recorded(self):
        spec = make_spec(horizon=10)
        trace = run(fixed_profile_factory([2, 1, 0, 0]), spec)
        assert trace.phase_events[0][1] == "exploit"


class CommittingPolicy:
    """Plays ``arm`` until ``commit_at``; that slot's observe commits it to ``target``.

    Once committed, it states ``target`` until the horizon. ``calls``
    collects (player, method, slot) for every ``next_action`` and
    ``observe``, and ``blocks`` the (first slot, n) of every block outcome.
    """

    def __init__(self, player_id, env, arm, commit_at, target, calls):
        self.player_id = player_id
        self.horizon = env.horizon
        self.arm = arm
        self.commit_at = commit_at
        self.target = target
        self.calls = calls
        self.phase = "explore"
        self.blocks = []
        self._t = 0  # the next slot it plays

    def next_action(self, t):
        self._t = t
        self.calls.append((self.player_id, "next_action", t))
        return self.target if self.phase == "exploit" else self.arm

    def observe(self, obs):
        self.calls.append((self.player_id, "observe", self._t))
        if self._t == self.commit_at:
            self.phase = "exploit"
        self._t += 1

    def schedule(self, t):
        return (self.horizon - t, (self.target,)) if self.phase == "exploit" else None

    def observe_block(self, outcomes):
        n = sum(slots for _, _, slots in outcomes)
        self.blocks.append((self._t, n))
        self._t += n


class TestFastForward:
    """Once every player has committed, the rest of the run is one block."""

    # Optimum {0: 2, 1: 1}, worth 2.6. Everyone starts on arm 3; players
    # commit out of order, and in its commit slot each still plays arm 3.
    COMMIT_AT = (9, 5, 12)
    TARGETS = (0, 0, 1)

    def simulate(self, commit_at, horizon=50):
        spec = make_spec(horizon=horizon)
        calls, probed, players = [], [], []

        def factory(i, env):
            players.append(CommittingPolicy(i, env, 3, commit_at[i], self.TARGETS[i], calls))
            return players[-1]

        def probe(t, policies, counts):
            probed.append((t, dict(counts)))

        trace = run(factory, spec, checkpoints=[5, 13, 30, horizon], probe=probe)
        return trace, calls, probed, players

    def test_one_block_after_every_player_commits(self):
        _, calls, _, players = self.simulate(self.COMMIT_AT)
        assert max(t for _, _, t in calls) == 12
        for i in range(3):
            for method in ("next_action", "observe"):
                slots = [t for p, m, t in calls if p == i and m == method]
                assert slots == list(range(13))
            assert players[i].blocks == [(13, 37)]  # slots 13-49

    def test_probe_sees_every_slot_with_the_committed_counts(self):
        _, _, probed, _ = self.simulate(self.COMMIT_AT)
        assert [t for t, _ in probed] == list(range(50))
        assert probed[12][1] == {0: 2, 3: 1}  # player 2 still on arm 3
        assert all(counts == {0: 2, 1: 1} for _, counts in probed[13:])

    def test_trace_matches_closed_form(self):
        trace, _, _, _ = self.simulate(self.COMMIT_AT)
        # gaps: 2.6 - 0.2 in slots 0-5, 2.6 - 1.1 in 6-9, 2.6 - 2.0 in 10-12
        early = 6 * 2.4
        committed = early + 4 * 1.5 + 3 * 0.6
        assert trace.checkpoint_regret == (
            pytest.approx(5 * 2.4),
            pytest.approx(committed),
            pytest.approx(committed),
            pytest.approx(committed),
        )
        assert trace.final_regret == pytest.approx(committed)
        assert not trace.optimal_mask[:13].any()
        assert trace.optimal_mask[13:].all()
        assert trace.phase_events == ((0, "explore"), (9, "exploit"))

    def test_one_uncommitted_player_keeps_everyone_stepping(self):
        trace, calls, probed, players = self.simulate((9, 5, None))
        for i in range(3):
            slots = [t for p, m, t in calls if p == i and m == "observe"]
            assert slots == list(range(50))
            assert players[i].blocks == []
        assert len(probed) == 50
        assert all(counts == {0: 2, 3: 1} for _, counts in probed[10:])
        assert trace.final_regret == pytest.approx(6 * 2.4 + 4 * 1.5 + 40 * 0.6)


# (algorithm, spec overrides). SIC players all commit by slot 1,756 and
# 2,730 of 6,000 in the first two, so the rest of those runs is one block.
NAIVE_CASES = [
    ("sic-sda", dict(means=(0.9, 0.6, 0.3, 0.1), capacities=(2, 1, 1, 1), horizon=6000, seed=1)),
    ("sic-sdi", dict(means=(0.9, 0.6, 0.3, 0.1), capacities=(2, 1, 1, 1), horizon=6000, seed=2)),
    ("sic-sda", dict(horizon=3000)),
    ("dpe-sdi", dict(horizon=3000)),
    ("highest-reward", dict(horizon=3000)),
    ("idlest-arm", dict(horizon=3000, feedback=Feedback.SDA)),
]


def assert_run_equals_naive_loop(factory, spec):
    """``run`` and ``oracles.naive_run`` give the same trace, field for field."""
    opt = optimal_profile_for(spec)
    checkpoints = [1, min(100, spec.horizon), spec.horizon // 2, spec.horizon]
    trace = run(factory, spec, checkpoints=checkpoints)

    def make_env(rng):
        return PublicEnvInfo(spec.num_arms, spec.horizon, spec.feedback, rng)

    want = naive_run(
        factory, make_env, spec, spec.feedback is Feedback.SDI,
        opt.value, opt.profile.counts, checkpoints,
    )
    for field, value in want.items():
        if field == "optimal_mask":
            assert np.array_equal(trace.optimal_mask, value)
        else:
            assert getattr(trace, field) == value, field


# Highest-reward runs that are mostly blocks: (spec overrides, engine._CHUNK).
# The first is shaped like edge-computing (K = 7, M = 6). In the second only
# arm 1 ever pays, so after warm-up every player's block is unbounded. The
# third draws 7 slots per chunk, so its blocks straddle chunk refills.
BLOCK_CASES = {
    "edge-like": (
        dict(
            num_arms=7, num_players=6,
            means=(0.5, 0.7, 0.4, 0.8333333333, 0.6666666667, 0.4333333333, 0.8666666667),
            capacities=(3, 2, 4, 2, 1, 2, 3), horizon=20_000, seed=5,
        ),
        engine._CHUNK,
    ),
    "one-paying-arm": (dict(means=(0.0, 0.6, 0.0, 0.0), horizon=3000), engine._CHUNK),
    "chunk-7": (dict(horizon=3000), 7),
}


# Cellular-shaped: K = 20, M = 18, the preset's means and capacities.
CELLULAR_LIKE = dict(
    num_arms=20, num_players=18, horizon=3000,
    means=(
        0.8333333333, 0.9090909091, 0.2380952381, 0.25, 0.2222222222, 0.2857142857,
        0.2, 0.2380952381, 0.1818181818, 0.2564102564, 0.2083333333, 0.1818181818,
        0.2702702703, 0.2127659574, 0.3125, 0.1960784314, 0.2272727273, 0.1886792453,
        0.2040816327, 0.243902439,
    ),
    capacities=(9, 8) + (1,) * 18,
)


# SIC runs, each mostly blocks: (algorithm, spec overrides, engine._CHUNK,
# engine._SPAN). In the first, 4 players share 5 arms and two arms take 3
# each, so anchored players sit still while the rest rotate. In the second,
# capacities stay unlearned for long, so united-exploration rallies run, with
# seats for ranks above an arm's upper bound; it draws 7 slots per chunk, so
# its blocks straddle chunk refills. The cellular-shaped ones (K = 20, M = 18)
# spend most slots communicating; their third upload, 17 pairs of 80 bits,
# is longer than a span, so one of its blocks ends mid-pair. The last cuts
# every communication stage into blocks of 5 slots.
SIC_BLOCK_CASES = {
    "sda-anchors": (
        "sic-sda",
        dict(
            num_arms=5, num_players=4, means=(0.9, 0.88, 0.3, 0.2, 0.1),
            capacities=(3, 3, 1, 1, 1), horizon=5000, seed=2,
        ),
        engine._CHUNK,
        engine._SPAN,
    ),
    "sdi-rallies-chunk-7": (
        "sic-sdi",
        dict(means=(0.9, 0.85, 0.8, 0.75), capacities=(1, 1, 2, 1), horizon=4000),
        7,
        engine._SPAN,
    ),
    "cellular-sda": ("sic-sda", dict(CELLULAR_LIKE, horizon=6000), engine._CHUNK, engine._SPAN),
    "cellular-sdi-chunk-7": ("sic-sdi", dict(CELLULAR_LIKE, horizon=6000), 7, engine._SPAN),
    "sda-anchors-span-5": (
        "sic-sda",
        dict(
            num_arms=5, num_players=4, means=(0.9, 0.88, 0.3, 0.2, 0.1),
            capacities=(3, 3, 1, 1, 1), horizon=5000, seed=2,
        ),
        engine._CHUNK,
        5,
    ),
}


class TestNaiveLoop:
    @pytest.mark.parametrize("algorithm, overrides", NAIVE_CASES)
    def test_run_equals_naive_loop(self, algorithm, overrides):
        cls, forced = ALGORITHMS[algorithm]
        spec = make_spec(**overrides)
        spec = dataclasses.replace(spec, feedback=forced or spec.feedback)
        assert_run_equals_naive_loop(cls, spec)

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_highest_reward_blocks_equal_naive_loop(self, monkeypatch, case):
        overrides, chunk = BLOCK_CASES[case]
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        blocks = []

        class Counted(HighestRewardPolicy):
            def observe_block(self, outcomes):
                blocks.append(sum(slots for _, _, slots in outcomes))
                super().observe_block(outcomes)

        spec = make_spec(**overrides)
        assert_run_equals_naive_loop(Counted, spec)
        assert sum(blocks) > spec.horizon * spec.num_players // 2
        if case == "one-paying-arm":  # one-slot warm-up blocks, then one to the end
            long = [spec.horizon - spec.num_arms] * spec.num_players
            assert blocks == [1] * len(blocks[: -spec.num_players]) + long
        if case == "chunk-7":
            assert max(blocks) > 2 * chunk

    @pytest.mark.parametrize("case", SIC_BLOCK_CASES)
    def test_sic_blocks_equal_naive_loop(self, monkeypatch, case):
        algorithm, overrides, chunk, span = SIC_BLOCK_CASES[case]
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        monkeypatch.setattr(engine, "_SPAN", span)
        forced = ALGORITHMS[algorithm][1]  # both run SicSdaPolicy
        in_blocks = []
        comm = []  # (slots, whether the block ends mid-pair) per communication block

        class Counted(SicSdaPolicy):
            def observe_block(self, outcomes):
                slots = sum(slots for _, _, slots in outcomes)
                in_blocks.append(slots)
                if self.phase == "comm":
                    comm.append((slots, (self._slot + slots) % self._stage_len != 0))
                super().observe_block(outcomes)

        spec = dataclasses.replace(make_spec(**overrides), feedback=forced)
        assert_run_equals_naive_loop(Counted, spec)
        assert sum(in_blocks) > spec.horizon * spec.num_players // 2
        assert comm, "no communication slot came in a block"
        if case == "sdi-rallies-chunk-7":
            assert max(in_blocks) > 2 * chunk
        if case.startswith("cellular"):
            assert sum(slots for slots, _ in comm) > spec.horizon * spec.num_players // 2
            assert max(comm) == (span, True)
        if case.endswith("span-5"):
            assert max(in_blocks) > span  # exploration is not cut
            assert max(comm) == (span, True)

    def test_full_memo_starts_over(self, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_PLANS", 8)
        spec = make_spec(horizon=500)

        class RandomArm:
            def __init__(self, player_id, env):
                self.rng = env.rng

            def next_action(self, t):
                return int(self.rng.integers(4))

            def observe(self, obs):
                pass

        trace = run(RandomArm, spec, checkpoints=[250, 500])
        opt = optimal_profile_for(spec)

        def make_env(rng):
            return PublicEnvInfo(spec.num_arms, spec.horizon, spec.feedback, rng)

        want = naive_run(
            RandomArm, make_env, spec, True, opt.value, opt.profile.counts, [250, 500]
        )
        assert trace.checkpoint_regret == want["checkpoint_regret"]
        assert np.array_equal(trace.optimal_mask, want["optimal_mask"])

    @pytest.mark.parametrize("algorithm, overrides", NAIVE_CASES[:2])
    def test_sic_case_is_fast_forwarded(self, algorithm, overrides):
        cls, feedback = ALGORITHMS[algorithm]
        spec = make_spec(feedback=feedback, **overrides)
        slots = []

        class Counted(cls):
            def next_action(self, t):
                slots.append(t)
                return super().next_action(t)

        run(Counted, spec)
        assert max(slots) < spec.horizon // 2


class BlockPolicy:
    """Cycles through ``arms`` from slot 0, in blocks of slots ``length``·k to
    ``length``·k + length - 1.

    ``calls`` collects (player, method, slot) for every engine call,
    ``blocks`` the (first slot, n) of every block outcome, and ``outcomes``
    the outcomes of each block.
    """

    def __init__(self, player_id, arms, length, calls):
        self.player_id = player_id
        self.arms = arms
        self.length = length
        self.calls = calls
        self.blocks = []
        self.outcomes = []
        self._t = 0  # the next slot it plays

    def next_action(self, t):
        self._t = t
        self.calls.append((self.player_id, "next_action", t))
        return self.arms[t % len(self.arms)]

    def observe(self, obs):
        self.calls.append((self.player_id, "observe", self._t))
        self._t += 1

    def schedule(self, t):
        size = len(self.arms)
        return self.length - t % self.length, tuple(
            self.arms[(t + j) % size] for j in range(size)
        )

    def observe_block(self, outcomes):
        n = sum(slots for _, _, slots in outcomes)
        self.calls.append((self.player_id, "observe_block", self._t))
        self.blocks.append((self._t, n))
        self.outcomes.append(outcomes)
        self._t += n


class TestMixedBlocks:
    """Block players with committing players: blocks start once all have committed."""

    # Players 0 and 2 play arm 3 and commit to arm 0 in slots 9 and 5;
    # player 1 plays arm 1 in blocks of four slots.
    def factory(self, calls):
        def make(i, env):
            if i == 1:
                return BlockPolicy(i, (1,), 4, calls)
            return CommittingPolicy(i, env, 3, 9 if i == 0 else 5, 0, calls)

        return make

    def test_committed_players_take_one_outcome_per_block(self):
        calls, probed, grabbed = [], [], []

        def probe(t, policies, counts):
            probed.append(t)
            grabbed[:] = policies

        run(self.factory(calls), make_spec(horizon=50), probe=probe)
        assert probed == list(range(50))
        for i in (0, 2):
            assert max(t for p, _, t in calls if p == i) == 9
        # Stepped until every committing player has committed, then blocks
        # 10-11, 12-15, ..., 44-47 and 48-49, each one outcome per player.
        assert [t for p, m, t in calls if m == "observe" and p == 1] == list(range(10))
        blocks = [(10, 2), *((t, 4) for t in range(12, 48, 4)), (48, 2)]
        assert [player.blocks for player in grabbed] == [blocks] * 3

    def test_trace_equals_naive_loop(self):
        assert_run_equals_naive_loop(self.factory([]), make_spec(horizon=50))


class TestCycleBlocks:
    """Cycling block players with a committing player.

    Player 0 plays arm 3 and commits to arm 0 in slot 9. Player 1 cycles
    through arms 0, 1, 2 and player 2 through arms 2, 3, both in blocks of
    slots 8k to 8k + 7, so a block's profile repeats every 6 slots. The
    first block (10-15) is one period long, the next ones longer and the
    last (48-49) shorter than the period.
    """

    CYCLES = {1: (0, 1, 2), 2: (2, 3)}

    def factory(self, calls):
        def make(i, env):
            if i in self.CYCLES:
                return BlockPolicy(i, self.CYCLES[i], 8, calls)
            return CommittingPolicy(i, env, 3, 9, 0, calls)

        return make

    @pytest.mark.parametrize("chunk", [engine._CHUNK, 7])
    def test_trace_equals_naive_loop(self, monkeypatch, chunk):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        assert_run_equals_naive_loop(self.factory([]), make_spec(horizon=50))

    def test_one_outcome_per_position_of_the_period(self):
        grabbed = []

        def probe(t, policies, counts):
            grabbed[:] = policies

        spec = make_spec(horizon=50)
        run(self.factory([]), spec, probe=probe)
        # X_k of every slot, from the run's environment stream.
        env_seed = np.random.SeedSequence(spec.seed).spawn(spec.num_players + 1)[0]
        rng = np.random.Generator(np.random.PCG64(env_seed))
        drawn = rng.random((spec.horizon, spec.num_arms)) < np.asarray(spec.means)
        starts = [(10, 6), (16, 8), (24, 8), (32, 8), (40, 8), (48, 2)]
        assert grabbed[0].blocks == starts
        for i, cycle in self.CYCLES.items():
            player = grabbed[i]
            assert player.blocks == starts
            for (start, n), outcomes in zip(player.blocks, player.outcomes):
                assert len(outcomes) == min(n, 6)
                for j, (obs, hits, slots) in enumerate(outcomes):
                    arm = cycle[(start + j) % len(cycle)]
                    others = [c[(start + j) % len(c)] for k, c in self.CYCLES.items() if k != i]
                    count = 1 + others.count(arm) + (arm == 0)  # player 0 sits on arm 0
                    assert (obs.arm, obs.count) == (arm, count)
                    assert obs.reward == min(count, spec.capacities[arm])
                    assert slots == len(range(j, n, 6))
                    assert hits == sum(drawn[start + j : start + n : 6, arm])


class CountedIdlestArm(IdlestArmPolicy):
    """Idlest-arm that keeps the slots it is stepped in and the (first slot,
    n) of every block it takes."""

    def __init__(self, player_id, env):
        super().__init__(player_id, env)
        self.stepped = []
        self.blocks = []
        self._t = 0  # the next slot it plays

    def next_action(self, t):
        self._t = t
        self.stepped.append(t)
        return super().next_action(t)

    def observe(self, obs):
        self._t += 1
        super().observe(obs)

    def observe_block(self, outcomes):
        n = sum(slots for _, _, slots in outcomes)
        self.blocks.append((self._t, n))
        self._t += n
        super().observe_block(outcomes)


class ScriptedJoiner:
    """Player 1 beside one idlest-arm player (player 0) on K = 4 arms.

    Warm-up: it keeps off player 0's arm. Slots 4-29: it plays arm t % 4,
    player 0's herd cycle, so at slot 4 it breaks player 0's unshared
    statement at position 0, and from slot 8 player 0 states the herd.
    Slots 30-59: it sits on arm 3 and so leaves the herd mid-cycle. From
    slot 60 it plays arm t % 4 again, and joins player 0's arm mid-block.
    It states its arms in windows of slots 8 + 40k to 47 + 40k.
    """

    phase = "explore"

    def __init__(self, player_id, env):
        self.horizon = env.horizon

    @staticmethod
    def arm(t):
        if t < 4:
            return (t + 3) % 4
        return 3 if 30 <= t < 60 else t % 4

    def next_action(self, t):
        return self.arm(t)

    def observe(self, obs):
        pass

    def schedule(self, t):
        end = min(t + 40 - (t - 8) % 40, self.horizon)
        return end - t, tuple(self.arm(s) for s in range(t, t + 40))

    def observe_block(self, outcomes):
        pass


class TestConditionedBlocks:
    """Idlest-arm states blocks that hold while its shared flag does."""

    @pytest.mark.parametrize("feedback", [Feedback.SDA, Feedback.SDI])
    def test_herd_equals_naive_loop(self, feedback):
        spec = make_spec(feedback=feedback, **CELLULAR_LIKE)
        made = []

        def factory(i, env):
            made.append(CountedIdlestArm(i, env))
            return made[-1]

        assert_run_equals_naive_loop(factory, spec)
        # Stepped through warm-up and the herd's first round, then the
        # herd's round-robin is one block to the horizon.
        K, T = spec.num_arms, spec.horizon
        for player in made[: spec.num_players]:
            assert player.stepped == list(range(2 * K))
            assert player.blocks == [(2 * K, T - 2 * K)]

    def test_lone_player_takes_one_block(self):
        spec = make_spec(num_players=1, capacities=(1, 1, 1, 1), horizon=3000)
        made = []

        def factory(i, env):
            made.append(CountedIdlestArm(i, env))
            return made[-1]

        assert_run_equals_naive_loop(factory, spec)
        player = made[0]
        assert player.stepped == list(range(spec.num_arms))
        assert player.blocks == [(spec.num_arms, spec.horizon - spec.num_arms)]

    def test_blocks_cut_where_the_condition_fails(self):
        spec = make_spec(num_players=2, horizon=300)
        made = []

        def factory(i, env):
            made.append(CountedIdlestArm(i, env) if i == 0 else ScriptedJoiner(i, env))
            return made[-1]

        assert_run_equals_naive_loop(factory, spec)
        idlest = made[0]
        # Slot 4 breaks the unshared statement at position 0: stepped.
        assert idlest.stepped[:8] == list(range(8))
        # The herd block from slot 8 ends where player 1 leaves, at slot
        # 30, mid-cycle and mid-window.
        assert idlest.blocks[0] == (8, 22)
        # Alone from slot 30, it states its arm; player 1 joins it at one
        # of slots 60-63, inside the window of slots 48-87.
        joined = [start + n for start, n in idlest.blocks if start + n in range(60, 64)]
        assert joined and joined[0] in idlest.stepped

class TestIsolation:
    @pytest.mark.parametrize("blocks", [False, True], ids=["stepped", "blocks"])
    def test_engine_reads_only_the_contract(self, blocks):
        """``run`` reads no name of a player outside the ``Policy`` contract."""
        read = set()

        class Logged:
            phase = "explore"

            def __init__(self, player_id, env):
                pass

            def __getattribute__(self, name):
                read.add(name)
                return object.__getattribute__(self, name)

            def next_action(self, t):
                return 0

            def observe(self, obs):
                pass

            def schedule(self, t):
                return (4 - t % 4, (0,)) if blocks else None

            def observe_block(self, outcomes):
                pass

        run(Logged, make_spec(horizon=50))
        contract = {"next_action", "observe", "schedule", "phase"}
        assert read == (contract | {"observe_block"} if blocks else contract)

    def test_public_env_info_excludes_ground_truth(self):
        names = {f.name for f in dataclasses.fields(PublicEnvInfo)}
        assert "means" not in names
        assert "capacities" not in names
        assert "num_players" not in names

    def test_observation_carries_only_arm_level_aggregates(self):
        spec = make_spec(horizon=80)

        def factory(i, env):
            return RecordingPolicy(i, env, [(i + t) % 3 for t in range(7)])

        grabbed = []
        run(factory, spec, probe=lambda t, ps, c: grabbed.extend(ps) if t == 0 else None)
        allowed = {"arm", "reward", "count", "shared"}
        for policy in grabbed:
            for obs in policy.seen:
                assert set(type(obs).__dataclass_fields__) == allowed
                assert obs.arm == obs.arm  # own arm only: index in range
                assert 0 <= obs.arm < spec.num_arms
                assert 0.0 <= obs.reward <= spec.num_players

    def test_block_outcomes_carry_only_the_players_own_arm(self):
        """Each outcome is the hit observation of the arm stated at its position."""
        for algorithm in ("highest-reward", "idlest-arm", "sic-sda", "sic-sdi"):
            cls, forced = ALGORITHMS[algorithm]
            outcomes = []

            class Recording(cls):
                def schedule(self, t):
                    # The last query before a block is the one at its start.
                    self.stated = super().schedule(t)
                    return self.stated

                def observe_block(self, block):
                    outcomes.append((self.stated, block))
                    super().observe_block(block)

            spec = make_spec(horizon=3000, feedback=forced or Feedback.SDI)
            run(Recording, spec)
            assert outcomes, algorithm
            for (n, arms, *_), block in outcomes:
                assert block and sum(slots for _, _, slots in block) <= n
                for j, (obs, hits, slots) in enumerate(block):
                    assert type(obs) is Observation
                    assert obs.arm == arms[j % len(arms)]
                    assert 0 <= hits <= slots
                    assert 0.0 < obs.reward <= spec.num_players
