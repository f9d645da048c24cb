import dataclasses
from collections import Counter

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


def drawn_arms(spec):
    """X_k of every slot and arm, from the run's environment stream."""
    env_seed = np.random.SeedSequence(spec.seed).spawn(spec.num_players + 1)[0]
    rng = np.random.Generator(np.random.PCG64(env_seed))
    return rng.random((spec.horizon, spec.num_arms)) < np.asarray(spec.means)


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
            (4, (1,), True): r"schedule answer \(4, \(1,\), True\) is malformed",
            (4, (1,), ((1, 2), (1, 2))): (
                r"schedule answer \(4, \(1,\), \(\(1, 2\), \(1, 2\)\)\) is malformed"
            ),
            (4, (1,), ((1, 2, 3),)): (
                r"schedule answer \(4, \(1,\), \(\(1, 2, 3\),\)\) is malformed"
            ),
            (4, (1,), ("12",)): r"schedule answer \(4, \(1,\), \('12',\)\) is malformed",
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

    def test_ride_error_names_the_slots_ridden(self):
        """Player 2 rides arm 2 alone in blocks of slots 5k to 5k + 4, and
        raises on the outcome of slot 7. Player 0 steps onto arm 2 in slot
        8, so the ride from slot 5 ends at slot 7, and the error names the
        slots the player rode, not those it stated."""

        class Stepped:
            phase = "explore"

            def __init__(self, player_id, env):
                self.player_id = player_id

            def next_action(self, t):
                return 2 if self.player_id == 0 and t == 8 else self.player_id

            def observe(self, obs):
                pass

        class Rider(BlockPolicy):
            phase = "listen"

            def schedule(self, t):
                n, arms = super().schedule(t)
                return n, arms, ((1, 1),)

            def observe_block(self, outcomes):
                if self._t <= 7 < self._t + len(outcomes):
                    raise ProtocolCorruptionError("lost sync")
                super().observe_block(outcomes)

        def factory(i, env):
            return Rider(i, (2,), 5, []) if i == 2 else Stepped(i, env)

        with pytest.raises(
            ProtocolCorruptionError, match=r"^lost sync at slots 5-7, player 2 in phase 'listen'$"
        ):
            run(factory, make_spec(horizon=20))

    def test_phase_events_recorded(self):
        spec = make_spec(horizon=10)
        trace = run(fixed_profile_factory([2, 1, 0, 0]), spec)
        assert trace.phase_events[0][1] == "exploit"


class CommittingPolicy:
    """Plays ``arm`` until ``commit_at``; that slot's observe commits it to ``target``.

    Once committed, it states ``target`` until the horizon. ``calls``
    collects (player, method, slot) for every ``next_action`` and
    ``observe``, ``blocks`` the (first slot, n) of every block outcome, and
    ``outcomes`` the outcomes of each block.
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
        self.outcomes = []
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
        self.outcomes.append(outcomes)
        self._t += n


class TestFastForward:
    """A committed player rides its arm while others are stepped; once every
    player has committed, the rest of the run is one block."""

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
        """Each player is stepped up to its commit slot and rides from the
        next. When the last one states its arm, the riders take the slots
        they rode so far, and then all three take one block."""
        _, calls, _, players = self.simulate(self.COMMIT_AT)
        for i, commit_at in enumerate(self.COMMIT_AT):
            for method in ("next_action", "observe"):
                slots = [t for p, m, t in calls if p == i and m == method]
                assert slots == list(range(commit_at + 1))
        # Player 1 rides slots 6-12 and player 0 slots 10-12, one outcome
        # per slot; slots 13-49 are one block of one position.
        assert [p.blocks for p in players] == [
            [(10, 3), (13, 37)], [(6, 7), (13, 37)], [(13, 37)]
        ]
        assert [len(outcomes) for p in players for outcomes in p.outcomes] == [3, 1, 7, 1, 1]

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

    def test_committed_players_ride_beside_an_uncommitted_one(self):
        """Player 2 never commits, so it is stepped in every slot and no
        block of everyone starts. Players 0 and 1 ride their arm from the
        slot after they commit to the horizon, and take each ride as one
        outcome per slot: its arm, count and draw in that slot."""
        spec = make_spec(horizon=50)
        trace, calls, probed, players = self.simulate((9, 5, None))
        for i, last in enumerate((9, 5, 49)):
            for method in ("next_action", "observe"):
                slots = [t for p, m, t in calls if p == i and m == method]
                assert slots == list(range(last + 1))
        assert [p.blocks for p in players] == [[(10, 40)], [(6, 44)], []]
        drawn = drawn_arms(spec)
        for player, first in zip(players[:2], (10, 6)):
            counts = [2 if t >= 10 else 1 for t in range(first, 50)]
            assert list(player.outcomes[0]) == [
                (Observation(0, float(c), c, c > 1), int(drawn[t, 0]), 1)
                for t, c in zip(range(first, 50), counts)
            ]
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


def assert_run_equals_naive_loop(factory, spec, probe=None, checkpoints=None):
    """``run`` and ``oracles.naive_run`` give the same trace, field for field.

    Checkpoints fall every 7 slots unless given, so many lie inside blocks.
    ``probe`` is passed to ``run``.
    """
    opt = optimal_profile_for(spec)
    if checkpoints is None:
        checkpoints = [1, *range(7, spec.horizon, 7), spec.horizon]
    trace = run(factory, spec, checkpoints=checkpoints, probe=probe)

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
    """Block players with committing players: a block player rides while a
    committing player is stepped, and blocks of everyone start once all have
    committed."""

    # Players 0 and 2 play arm 3 and commit to arm 0 in slots 9 and 5;
    # player 1 cycles through CYCLE in blocks of four slots.
    CYCLE = (1,)

    def factory(self, calls):
        def make(i, env):
            if i == 1:
                return BlockPolicy(i, self.CYCLE, 4, calls)
            return CommittingPolicy(i, env, 3, 9 if i == 0 else 5, 0, calls)

        return make

    def test_committed_players_take_one_outcome_per_block(self):
        """Player 1 rides its blocks from slot 0, and player 2 its arm from
        slot 6, while player 0 is stepped. When player 0 states its arm in
        slot 10, both riders take the slots they rode so far, and every
        block after is everyone's. Each ride or block is one ``observe_block``
        call: a ride's outcomes are one per slot, a block of everyone's one
        per position of its period."""
        calls, probed, grabbed = [], [], []

        def probe(t, policies, counts):
            probed.append((t, dict(counts)))
            grabbed[:] = policies

        run(self.factory(calls), make_spec(horizon=50), probe=probe)
        # The probe sees every slot once, in order, with that slot's counts.
        cycle = self.CYCLE
        profiles = [
            (3 if t <= 9 else 0, cycle[t % len(cycle)], 3 if t <= 5 else 0) for t in range(50)
        ]
        assert probed == [(t, dict(Counter(arms))) for t, arms in enumerate(profiles)]
        # Stepped up to their commit slots; player 1 is never stepped.
        for i, last in ((0, 9), (2, 5)):
            assert [t for p, m, t in calls if m == "observe" and p == i] == list(range(last + 1))
        everyone = [(10, 2), *((t, 4) for t in range(12, 48, 4)), (48, 2)]
        rides = [[], [(0, 4), (4, 4), (8, 2)], [(6, 4)]]
        assert [player.blocks for player in grabbed] == [ridden + everyone for ridden in rides]
        assert [m for p, m, _ in calls if p == 1] == ["observe_block"] * (len(everyone) + 3)
        for player, ridden in zip(grabbed, rides):
            assert [len(outcomes) for outcomes in player.outcomes] == [
                *(n for _, n in ridden), *(min(n, len(cycle)) for _, n in everyone)
            ]

    def test_trace_equals_naive_loop(self):
        assert_run_equals_naive_loop(self.factory([]), make_spec(horizon=50))


class TestMixedPerSlotBlocks(TestMixedBlocks):
    """The same, with player 1 cycling through arms 1, 2, 1, 3: the period
    is as long as a block, so every slot of a block is its own position."""

    CYCLE = (1, 2, 1, 3)


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
        """Players 1 and 2 ride slots 0-7 and 8-9 while player 0 is stepped,
        one outcome per slot. Player 0 commits in slot 9; from slot 10 each
        block of everyone gives one outcome per position of the period."""
        grabbed = []

        def probe(t, policies, counts):
            grabbed[:] = policies

        spec = make_spec(horizon=50)
        run(self.factory([]), spec, probe=probe)
        drawn = drawn_arms(spec)
        rides = [(0, 8), (8, 2)]
        starts = [(10, 6), (16, 8), (24, 8), (32, 8), (40, 8), (48, 2)]
        assert grabbed[0].blocks == starts
        for i, cycle in self.CYCLES.items():
            player = grabbed[i]
            assert player.blocks == rides + starts
            for (start, n), outcomes in zip(player.blocks, player.outcomes):
                ride = start < 10
                assert len(outcomes) == (n if ride else min(n, 6))
                for j, (obs, hits, slots) in enumerate(outcomes):
                    arm = cycle[(start + j) % len(cycle)]
                    others = [c[(start + j) % len(c)] for k, c in self.CYCLES.items() if k != i]
                    # Player 0 sits on arm 3 to slot 9 and on arm 0 after.
                    count = 1 + others.count(arm) + (arm == (3 if start < 10 else 0))
                    assert (obs.arm, obs.count) == (arm, count)
                    assert obs.reward == min(count, spec.capacities[arm])
                    if ride:
                        assert (hits, slots) == (drawn[start + j, arm], 1)
                    else:
                        assert slots == len(range(j, n, 6))
                        assert hits == sum(drawn[start + j : start + n : 6, arm])


class TestPerSlotBlocks:
    """Three block players cycle through arms with coprime cycle lengths 2,
    3 and 5, in blocks of slots 8k to 8k + 7. The period, 30, is longer than
    every block, so every slot of a block is its own position."""

    CYCLES = ((2, 3), (0, 1, 2), (1, 3, 0, 2, 0))

    @pytest.mark.parametrize(
        "chunk, span", [(engine._CHUNK, engine._SPAN), (7, 5)], ids=["whole", "span-5-chunk-7"]
    )
    def test_outcomes_read_the_same_every_way(self, monkeypatch, chunk, span):
        """Length, iteration, every index and slices give one (obs, hits, 1)
        per slot: the hit observation of the player's planned arm and count,
        and that slot's draw of the arm."""
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        monkeypatch.setattr(engine, "_SPAN", span)
        made = []

        def factory(i, env):
            made.append(BlockPolicy(i, self.CYCLES[i], 8, []))
            return made[-1]

        spec = make_spec(horizon=50)
        run(factory, spec)
        drawn = drawn_arms(spec)
        # With a span of 5, every 8-slot block is cut after its fifth slot.
        cuts = [(s, min(span, 8)) for s in range(0, 48, 8)]
        cuts += [(s + span, 8 - span) for s in range(0, 48, 8) if span < 8]
        starts = sorted(cuts) + [(48, 2)]
        for i, player in enumerate(made):
            assert player.blocks == starts
            for (start, n), outcomes in zip(player.blocks, player.outcomes):
                want = []
                for s in range(start, start + n):
                    arms = [c[s % len(c)] for c in self.CYCLES]
                    arm, count = arms[i], arms.count(arms[i])
                    hit = Observation(arm, float(min(count, spec.capacities[arm])), count, count > 1)
                    want.append((hit, int(drawn[s, arm]), 1))
                assert len(outcomes) == n
                assert list(outcomes) == want
                assert [outcomes[j] for j in range(-n, n)] == want + want
                for cut in (
                    slice(None), slice(1, None), slice(None, -1), slice(None, None, 2),
                    slice(1, n - 1, 3), slice(None, None, -1), slice(-2, None), slice(n, None),
                ):
                    assert outcomes[cut] == want[cut]
                with pytest.raises(IndexError):
                    outcomes[n]
                # Read any way, an entry is the same interned objects.
                for j, entry in enumerate(outcomes):
                    assert outcomes[j] is entry
                    assert outcomes[j : j + 1][0] is entry


class Shifter:
    """Cycles through ``arms``, and moves one arm further along them after a
    slot whose count on its arm exceeds ``limit``.

    It states its cycle to the horizon with the count range (1, limit) at
    every position, within which it plays the cycle whatever it observes.
    Its phase names its shift. ``rides`` collects the (first slot, n) of
    every ride, and ``played`` the arm of every ``next_action``.
    """

    def __init__(self, player_id, env, arms, limit):
        self.arms, self.limit, self.horizon = arms, limit, env.horizon
        self.shift = 0
        self.phase = "shift 0"
        self.rides = []
        self.played = []
        self._t = 0  # the next slot it plays

    def arm(self, t):
        return self.arms[(t + self.shift) % len(self.arms)]

    def next_action(self, t):
        self._t = t
        self.played.append(self.arm(t))
        return self.played[-1]

    def observe(self, obs):
        if obs.count > self.limit:
            self.shift += 1
            self.phase = f"shift {self.shift}"
        self._t += 1

    def schedule(self, t):
        size = len(self.arms)
        cycle = tuple(self.arm(s) for s in range(t, t + size))
        return self.horizon - t, cycle, ((1, self.limit),) * size

    def observe_block(self, outcomes):
        assert all(obs.count <= self.limit and slots == 1 for obs, _, slots in outcomes)
        self.rides.append((self._t, len(outcomes)))
        self._t += len(outcomes)


class Wanderer:
    """Plays arm 3 in about three slots of four and a random arm in the
    others, from its own generator, and states no block.

    ``played`` collects the arm of every ``next_action``.
    """

    phase = "wander"

    def __init__(self, player_id, env):
        self.rng, self.num_arms = env.rng, env.num_arms
        self.played = []

    def next_action(self, t):
        home = self.rng.random() < 0.75
        self.played.append(3 if home else int(self.rng.integers(self.num_arms)))
        return self.played[-1]

    def observe(self, obs):
        pass


class Napper:
    """Plays a fixed pseudo-random arm each slot; at slots 11 + 29k it states
    its next three arms, with no range. ``naps`` collects the length of
    every ride."""

    phase = "nap"

    def __init__(self, player_id, env):
        self.num_arms = env.num_arms
        self.naps = []

    def arm(self, t):
        return (7 * t + t // 5) % self.num_arms

    def next_action(self, t):
        return self.arm(t)

    def observe(self, obs):
        pass

    def schedule(self, t):
        return (3, tuple(map(self.arm, range(t, t + 3)))) if t % 29 == 11 else None

    def observe_block(self, outcomes):
        self.naps.append(len(outcomes))


# Riders of ``TestRides``: player -> (arms, largest count).
RIDERS = {0: ((0, 1), 1), 1: ((2, 3), 1)}


class TestRides:
    """One stepped player beside two riders whose count ranges break mid-ride.

    Player 2 wanders. Players 0 and 1 ride arms (0, 1) and (2, 3), alone on
    their arm. A slot that breaks a rider's range ends its ride at the slot
    before and steps it there, which moves its cycle on. ``_SPAN`` is 7, so
    a ride that holds is cut after 7 slots.
    """

    @staticmethod
    def factory(made):
        def make(i, env):
            made.append(Wanderer(i, env) if i == 2 else Shifter(i, env, *RIDERS[i]))
            return made[-1]

        return make

    @pytest.mark.parametrize(
        "chunk, probed",
        [(engine._CHUNK, True), (5, True), (engine._CHUNK, False), (5, False)],
        ids=[str(engine._CHUNK), "5", f"{engine._CHUNK}-unprobed", "5-unprobed"],
    )
    def test_trace_equals_naive_loop(self, monkeypatch, chunk, probed):
        monkeypatch.setattr(engine, "_SPAN", 7)
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        spec = make_spec(horizon=400)
        made, probes = [], []

        def probe(t, policies, counts):
            probes.append((t, dict(counts)))

        assert_run_equals_naive_loop(self.factory(made), spec, probe if probed else None)
        # The probe sees every slot once, with the counts the naive loop plays.
        stepped = made[spec.num_players :]
        if probed:
            assert probes == [
                (t, dict(Counter(p.played[t] for p in stepped))) for t in range(spec.horizon)
            ]
        for i in RIDERS:
            rider = made[i]
            assert rider.shift > 5
            assert max(n for _, n in rider.rides) == 7
            # Rides cut short by a broken range, not by the horizon.
            assert any(0 < n < 7 and first + n < spec.horizon for first, n in rider.rides)
            # Every slot is stepped or ridden, and none is both.
            assert len(rider.played) + sum(n for _, n in rider.rides) == spec.horizon
        assert len(made[2].played) == spec.horizon

    def test_checkpoints_at_ride_ends_and_chunk_refills(self, monkeypatch):
        """Checkpoints fall where rides end and where the drawn chunk of 5
        slots runs out, so the stretch boundaries coincide."""
        monkeypatch.setattr(engine, "_SPAN", 7)
        monkeypatch.setattr(engine, "_CHUNK", 5)
        spec = make_spec(horizon=400)
        made = []
        run(self.factory(made), spec)
        ends = {first + n for i in RIDERS for first, n in made[i].rides}
        assert len(ends - set(range(0, 401, 5))) > 20
        checkpoints = sorted(ends | set(range(5, 401, 5)))
        assert_run_equals_naive_loop(self.factory([]), spec, checkpoints=checkpoints)

    def test_first_phase_is_read_at_slot_0(self, monkeypatch):
        """Player 0 rides from slot 0, and regret is sampled only at the
        horizon, so the first stretch is longer than a slot; player 0's
        first phase is still recorded at slot 0."""
        monkeypatch.setattr(engine, "_SPAN", 7)
        spec = make_spec(horizon=400)
        assert run(self.factory([]), spec, checkpoints=[400]).phase_events[0] == (0, "shift 0")
        assert_run_equals_naive_loop(self.factory([]), spec, checkpoints=[400])

    @pytest.mark.parametrize("riders", [True, False], ids=["beside-riders", "all-stepped"])
    def test_idle_player_states_mid_stretch(self, riders):
        """A stepped player states three slots at slots 11 + 29k, with no
        probe: beside players 0 and 1 riding and player 2 wandering, or
        beside player 0 wandering while nobody rides."""
        made = []

        def factory(i, env):
            if i in RIDERS and riders:
                made.append(Shifter(i, env, *RIDERS[i]))
            else:
                made.append(Napper(i, env) if i == count - 1 else Wanderer(i, env))
            return made[-1]

        count = 4 if riders else 2
        spec = make_spec(num_arms=5, num_players=count, means=(0.9, 0.8, 0.7, 0.2, 0.5),
                         capacities=(2, 1, 2, 1, 1), horizon=400)
        assert_run_equals_naive_loop(factory, spec)
        assert made[count - 1].naps == [3] * len(range(11, 400, 29))

    @pytest.mark.parametrize(
        "case", ["stepped-observe", "beside-riders-next_action", "breaker-next_action", "schedule"]
    )
    def test_error_in_a_stretch_names_its_slot(self, monkeypatch, case):
        """An error raised in a slot of a stretch names that slot, the player
        and its phase."""
        monkeypatch.setattr(engine, "_SPAN", 7)
        failed = []

        class Failing(Wanderer):
            def next_action(self, t):
                if case == "beside-riders-next_action" and t == 123:
                    raise ProtocolCorruptionError("lost sync")
                self._t = t
                return super().next_action(t)

            def observe(self, obs):
                if case == "stepped-observe" and self._t == 123:
                    raise ProtocolCorruptionError("lost sync")

            def schedule(self, t):
                if case == "schedule" and t == 123:
                    raise ProtocolCorruptionError("lost sync")

            def observe_block(self, outcomes):
                pass

        class FailingShifter(Shifter):
            def next_action(self, t):
                if t > 100:
                    failed.append((t, self.phase))
                    raise ProtocolCorruptionError("lost sync")
                return super().next_action(t)

        def factory(i, env):
            if case == "stepped-observe":
                return Failing(i, env) if i == 2 else Wanderer(i, env)  # nobody rides
            if case == "breaker-next_action" and i == 0:
                return FailingShifter(i, env, *RIDERS[i])
            return Failing(i, env) if i == 2 else Shifter(i, env, *RIDERS[i])

        want = r"slot 123, player 2 in phase 'wander'"
        with pytest.raises(ProtocolCorruptionError) as raised:
            run(factory, make_spec(horizon=400))
        if case == "breaker-next_action":
            (t, phase), = failed
            want = rf"slot {t}, player 0 in phase '{phase}'"
        assert raised.match(rf"^lost sync at {want}$")


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
