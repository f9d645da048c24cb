"""End-to-end fuzz: full policies on small environments.

dpe-sdi and sic-sda run on environments with tied means, means in {0, 1},
capacities all 1 or all M, one player, and one arm more than players. Each
run must raise nothing and pay no slot above the optimum, and DPE players'
views must agree whenever every player starts a round. On the same
environments sic-sda and sic-sdi, which take most slots in engine blocks,
must give the trace of ``oracles.naive_run``, which steps every slot.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import naive_run

from shareable_bandits.dpe import DpeSdiPolicy
from shareable_bandits.engine import PublicEnvInfo, run
from shareable_bandits.model import EnvSpec, Feedback, optimal_profile_for
from shareable_bandits.scenarios import ALGORITHMS
from shareable_bandits.sic import SicSdaPolicy

POLICIES = {
    "dpe-sdi": (DpeSdiPolicy, Feedback.SDI),
    "sic-sda": (SicSdaPolicy, Feedback.SDA),
}

MEANS = {
    "any": st.integers(0, 100).map(lambda x: x / 100),
    "binary": st.sampled_from([0.0, 1.0]),
    "tied": st.sampled_from([0.3, 0.7]),
}


@st.composite
def environments(draw):
    """(K, M, means, capacities, horizon, seed) of a small environment."""
    num_arms = draw(st.integers(2, 6))
    num_players = draw(st.sampled_from([1, num_arms - 1, draw(st.integers(1, num_arms - 1))]))
    mean = MEANS[draw(st.sampled_from(sorted(MEANS)))]
    means = tuple(draw(st.lists(mean, min_size=num_arms, max_size=num_arms)))
    cap = draw(st.sampled_from([st.just(1), st.just(num_players), st.integers(1, num_players)]))
    caps = tuple(draw(st.lists(cap, min_size=num_arms, max_size=num_arms)))
    horizon = draw(st.integers(200, 3000))
    seed = draw(st.integers(0, 2**16))
    return num_arms, num_players, means, caps, horizon, seed


def best_value(means, caps, num_players):
    """The top M capacity units, each worth its arm's mean."""
    units = sorted((mu for mu, c in zip(means, caps) for _ in range(c)), reverse=True)
    return sum(units[:num_players])


def view_of(p):
    v = p.view
    return frozenset(v.optimal_set), v.least_favored, tuple(v.cap_lower), tuple(v.cap_upper)


@pytest.mark.parametrize("algorithm", sorted(POLICIES))
@settings(max_examples=300, deadline=None)
@given(env=environments())
# Views that put every player on one arm (these desynchronized DPE once).
@example(env=(7, 2, (0.62, 0.53, 0.36, 0.0, 0.39, 0.43, 0.41), (1, 2, 1, 2, 1, 2, 1), 2795, 47))
@example(env=(7, 2, (0.58, 0.93, 0.15, 0.95, 0.46, 0.16, 0.78), (2, 2, 2, 2, 1, 1, 1), 2991, 54))
@example(env=(8, 2, (1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0), (2, 1, 2, 2, 2, 2, 2, 1), 1205, 63))
# One player; capacities all M with means in {0, 1}; ties with capacities all 1.
@example(env=(2, 1, (0.5, 0.5), (1, 1), 600, 1))
@example(env=(4, 3, (1.0, 0.0, 1.0, 0.0), (3, 3, 3, 3), 800, 2))
@example(env=(5, 3, (0.4, 0.4, 0.4, 0.4, 0.4), (1, 1, 1, 1, 1), 800, 3))
def test_full_runs_stay_sound(algorithm, env):
    num_arms, num_players, means, caps, horizon, seed = env
    policy, feedback = POLICIES[algorithm]
    spec = EnvSpec(num_arms, num_players, means, caps, horizon, feedback=feedback, seed=seed)
    best = best_value(means, caps, num_players)
    dpe = algorithm == "dpe-sdi"
    negative, desync = [], []

    def probe(t, policies, counts):
        value = sum(min(c, caps[a]) * means[a] for a, c in counts.items())
        if value > best + 1e-9:
            negative.append(t)
        if dpe and all(p._mode == "explore-round" and p._slot == 0 for p in policies):
            if len({view_of(p) for p in policies}) > 1:
                desync.append(t)

    run(policy, spec, probe=probe)
    assert negative == []
    assert desync == []


@pytest.mark.parametrize("algorithm", ["sic-sda", "sic-sdi"])
@settings(max_examples=200, deadline=None)
@given(env=environments())
# One player (each stage ends at once); tied means; means in {0, 1}.
@example(env=(2, 1, (0.5, 0.5), (1, 1), 600, 1))
@example(env=(5, 3, (0.4, 0.4, 0.4, 0.4, 0.4), (1, 1, 1, 1, 1), 800, 3))
@example(env=(4, 3, (1.0, 0.0, 1.0, 0.0), (3, 3, 3, 3), 800, 2))
def test_sic_blocks_equal_naive_loop(algorithm, env):
    num_arms, num_players, means, caps, horizon, seed = env
    policy, feedback = ALGORITHMS[algorithm]
    spec = EnvSpec(num_arms, num_players, means, caps, horizon, feedback=feedback, seed=seed)
    opt = optimal_profile_for(spec)
    checkpoints = sorted({1, horizon // 2, horizon})
    trace = run(policy, spec, checkpoints=checkpoints)
    want = naive_run(
        policy, lambda rng: PublicEnvInfo(num_arms, horizon, feedback, rng),
        spec, feedback is Feedback.SDI, opt.value, opt.profile.counts, checkpoints,
    )
    for field, value in want.items():
        if field == "optimal_mask":
            assert np.array_equal(trace.optimal_mask, value)
        else:
            assert getattr(trace, field) == value, field
