"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE n: PASS/FAIL` line (visible with
pytest -s or in failure output) and asserts the criterion at its stated
tolerance. Heavy simulation batches are shared across criteria via
module-scoped fixtures.
"""

import dataclasses
import functools
import math
import statistics
import time

import numpy as np
import pytest

from shareable_bandits.baselines import HighestRewardPolicy, IdlestArmPolicy
from shareable_bandits.dpe import DpeSdiPolicy
from shareable_bandits.engine import Observation, PublicEnvInfo, run
from shareable_bandits.harness import run_experiment
from shareable_bandits.model import EnvSpec, Feedback, oracle
from shareable_bandits.protocol import (
    LeaderDecision,
    bound_bits,
    broadcast_message,
    decode_bits,
    encode_stat,
    read_broadcast,
)
from shareable_bandits.sic import SicSdaPolicy, upload_bits
from shareable_bandits.scenarios import preset_scenarios
from shareable_bandits.stats import capacity_interval, confidence_radius, klucb_index

from oracles import (
    brute_force_optimal,
    klucb_grid,
    simulate_binary_broadcast,
    simulate_dpe_broadcast,
)
from test_dpe import as_dict, mutate, random_shared_info, transfer_through_counts

JOBS = 2


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- shared heavy batches ----------------------------------------------------


def _sweep(scenario_name, algorithms, seeds, checkpoints):
    sc = dataclasses.replace(
        preset_scenarios()[scenario_name],
        algorithms=algorithms,
        seeds=list(seeds),
        checkpoints=checkpoints,
    )
    _, results = run_experiment(sc, jobs=JOBS)
    out: dict[str, list] = {alg: [] for alg in algorithms}
    for res in results:
        out[res.algorithm].append(res)
    return out


@pytest.fixture(scope="module")
def synthetic_runs():
    t0 = time.perf_counter()
    runs = _sweep(
        "synthetic-0.025",
        ["dpe-sdi", "sic-sda", "sic-sdi"],
        range(20),
        checkpoints=[10_000, 100_000],
    )
    runs["_elapsed"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="module")
def application_runs():
    t0 = time.perf_counter()
    edge = _sweep(
        "edge-computing",
        ["dpe-sdi", "highest-reward", "idlest-arm"],
        range(20),
        checkpoints=[100_000],
    )
    cellular = _sweep(
        "cellular-5g4g",
        ["sic-sda", "highest-reward", "idlest-arm"],
        range(10),
        checkpoints=[200_000],
    )
    return {"edge": edge, "cellular": cellular,
            "elapsed": time.perf_counter() - t0}


# -- criterion 1: oracle equivalence -----------------------------------------


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 500:
        k = int(rng.integers(2, 6))
        players = int(rng.integers(1, 7))
        means = rng.random(k).tolist()
        caps = rng.integers(1, 4, size=k).tolist()
        if sum(caps) < players:
            continue
        got = oracle(means, caps, players)
        ref = brute_force_optimal(means, caps, players)
        worst = max(worst, abs(got.value - ref.best_value))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    assert report(1, ok, f"500 instances, worst gap {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: KL-UCB equivalence ------------------------------------------


def test_criterion_2_klucb_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        mu = float(rng.random())
        pulls = int(rng.integers(1, 10**5))
        t = int(rng.integers(3, 10**6))
        worst = max(worst, abs(klucb_index(mu, pulls, t) - klucb_grid(mu, pulls, t)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-6 and elapsed < 5.0
    assert report(2, ok, f"1000 inputs, worst gap {worst:.2e}, {elapsed:.1f}s")


# -- criterion 3: capacity-bound coverage and collapse -------------------------


def _capacity_trial_envelopes(mu, m, n, reps, delta, max_units, seed):
    """Vectorized per-sample bound envelopes for `reps` repetitions.

    Mirrors capacity_interval()'s arithmetic; one repetition is cross-checked
    against the library function in the test body.
    """
    rng = np.random.default_rng(seed)
    idx = np.arange(1, n + 1, dtype=float)
    rad = np.sqrt((1 + 1 / idx) * np.log(2 * np.sqrt(idx + 1) / delta) / (2 * idx))
    rsum = 2 * rad
    cover = 0
    collapse = 0
    for _ in range(reps):
        ie = (rng.random(n) < mu).astype(float)
        ue = m * (rng.random(n) < mu).astype(float)
        mu_hat = np.cumsum(ie) / idx
        nu_hat = np.cumsum(ue) / idx
        lo_raw = np.ceil(nu_hat / (mu_hat + rsum) - 1e-12)
        lo = np.maximum.accumulate(np.clip(lo_raw, 1, max_units))
        denom = mu_hat - rsum
        hi_raw = np.where(
            denom > 0, np.floor(nu_hat / np.maximum(denom, 1e-300) + 1e-12), np.inf
        )
        hi = np.minimum.accumulate(np.clip(hi_raw, 1, max_units))
        good = bool(np.all((lo <= m) & (m <= hi)))
        cover += good
        collapse += good and lo[-1] == m and hi[-1] == m
    return cover / reps, collapse / reps


def test_criterion_3_capacity_bounds():
    t0 = time.perf_counter()
    delta, reps, max_units = 0.05, 1000, 6
    results = []
    for mu, m in ((0.5, 2), (0.7, 3)):
        n = math.ceil(49 * m * m / (mu * mu) * math.log(2 / delta))
        cover, collapse = _capacity_trial_envelopes(mu, m, n, reps, delta, max_units, seed=m)
        results.append((mu, m, n, cover, collapse))

    # cross-check the vectorized replica against the library on one stream
    rng = np.random.default_rng(7)
    n = 400
    ie = (rng.random(n) < 0.5).astype(float)
    ue = 2 * (rng.random(n) < 0.5).astype(float)
    lo, hi = 1, max_units
    for i in range(1, n + 1):
        rsum = 2 * confidence_radius(i, delta)
        raw_lo, raw_hi = capacity_interval(ie[:i].mean(), ue[:i].mean(), rsum)
        lo = max(lo, min(raw_lo, max_units))
        if raw_hi is not None:
            hi = min(hi, max(raw_hi, 1))
        assert lo <= 2 <= hi

    elapsed = time.perf_counter() - t0
    ok = all(c >= 0.94 for _, _, _, c, _ in results) and all(
        col >= 1 - delta - 0.02 for _, _, _, _, col in results
    ) and elapsed < 60.0
    detail = "; ".join(
        f"(mu={mu}, m={m}): cover {c:.3f}, collapse@{n} {col:.3f}"
        for mu, m, n, c, col in results
    )
    assert report(3, ok, f"{detail}, {elapsed:.1f}s")


# -- criterion 4: protocol losslessness ----------------------------------------


def _random_broadcast_case(rng):
    """A random leader decision and bound update over a random active set."""
    num_arms = int(rng.integers(3, 10))
    num_players = int(rng.integers(2, 19))
    active = sorted(
        int(a) for a in rng.choice(num_arms, size=rng.integers(2, num_arms + 1),
                                   replace=False)
    )
    view_lower = [int(rng.integers(1, num_players + 1)) for _ in range(num_arms)]
    view_upper = [int(rng.integers(v, num_players + 1)) for v in view_lower]
    lower_new = [
        int(rng.integers(v, u + 1)) for v, u in zip(view_lower, view_upper)
    ]
    upper_new = [
        int(rng.integers(max(v, l), u + 1))
        for v, u, l in zip(view_lower, view_upper, lower_new)
    ]
    decision = LeaderDecision()
    for arm in active:
        kind = rng.integers(4)
        if kind == 0:
            decision.rejected.add(arm)
        elif kind == 1:
            decision.accepted.add(arm)
    leftovers = [a for a in active
                 if a not in decision.rejected and a not in decision.accepted]
    if leftovers and rng.random() < 0.5:
        decision.least_favored = int(rng.choice(leftovers))
    return num_players, active, view_lower, view_upper, lower_new, upper_new, decision


def _extreme_broadcast_cases():
    """Bounds at 1 and at M: brackets that close at either end or stay open."""
    for num_players in (2, 3, 4, 8, 17, 18):
        m = num_players
        active = [0, 1, 2, 3]
        view_lower, view_upper = [1, 1, 1, 1], [m, m, m, m]
        yield (m, active, view_lower, view_upper, [1, m, 1, 1], [1, m, m, m],
               LeaderDecision(accepted={0}, rejected={1}))
        yield (m, active, view_lower, view_upper, view_lower, view_upper,
               LeaderDecision())
        yield (m, active, [1, m, 1, m], [1, m, m, m], [1, m, 1, m], [1, m, 1, m],
               LeaderDecision(accepted={1}, least_favored=2))


class _BitUpload:
    """Player 1 sends ``bits`` to player 0, which listens on arm 0 and keeps
    its shared flags in ``heard``; player 1 joins arm 0 for a 1 bit."""

    def __init__(self, bits, heard, player_id, env):
        self.bits, self.heard, self.listener = bits, heard, player_id == 0

    def next_action(self, t):
        return 0 if self.listener or self.bits[t] else 1

    def observe(self, obs):
        if self.listener:
            self.heard.append(1 if obs.shared else 0)


def test_criterion_4_protocol_losslessness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)

    # (a) DPE leader-to-follower state transfer: one binary round, through
    # the policies' code and an independent hand simulation of the channel
    dpe_fail = 0
    for _ in range(1000):
        num_arms = int(rng.integers(3, 10))
        num_players = int(rng.integers(2, min(num_arms, 7) + 1))
        view = random_shared_info(rng, num_arms, num_players)
        new = view
        for _ in range(int(rng.integers(1, 4))):
            new = mutate(rng, new, num_arms, num_players)
        arms, views = transfer_through_counts(new, view, num_players, num_arms)
        ref_arms, ref_state = simulate_dpe_broadcast(
            num_arms, num_players, as_dict(view), as_dict(new)
        )
        dpe_fail += not (
            arms == ref_arms
            and all(v == new and as_dict(v) == ref_state for v in views)
        )

    # (b) follower-to-leader bit upload, one engine run per case (SDA feedback)
    env_rng = np.random.default_rng(9)
    upload_fail = 0
    cases = []
    for p in range(1, 11):
        cases.extend((p + 1, v) for v in range(1 << (p + 1)))
    for _ in range(500):
        m_players = int(rng.integers(2, 19))
        p = int(rng.integers(1, 11))
        nbits = upload_bits(p, m_players)
        cases.append((nbits, int(rng.integers(0, (m_players << p) + 1))))
    for nbits, value in cases:
        spec = EnvSpec(3, 2, (0.5, 0.5, 0.5), (1, 1, 1), nbits, feedback=Feedback.SDA,
                       seed=int(env_rng.integers(2**63)))
        flags = []
        run(functools.partial(_BitUpload, encode_stat(value, nbits), flags), spec)
        upload_fail += decode_bits(flags) != value
    num_upload_cases = len(cases)

    # (c) accept/reject/bounds broadcast, one binary round, through the
    # policy's codec and an independent hand simulation of the channel
    cases = [_random_broadcast_case(rng) for _ in range(1000)]
    cases.extend(_extreme_broadcast_cases())
    forth_fail = 0
    for m, active, view_lower, view_upper, lower_new, upper_new, decision in cases:
        nbits = bound_bits(m)
        bits = broadcast_message(decision, active, view_lower, view_upper,
                                 lower_new, upper_new, nbits)
        target = {"rejected": decision.rejected, "accepted": decision.accepted,
                  "least": decision.least_favored, "lower": lower_new,
                  "upper": upper_new}
        ref_bits, heard, ref = simulate_binary_broadcast(
            active, m, view_lower, view_upper, target
        )
        seen, moved = read_broadcast(heard, active, nbits)
        lower, upper = list(view_lower), list(view_upper)
        for arm, (lo, hi) in moved.items():
            lower[arm], upper[arm] = lo, hi
        ok = (
            bits == ref_bits
            and seen.accepted == decision.accepted == ref["accepted"]
            and seen.rejected == decision.rejected == ref["rejected"]
            and seen.least_favored == decision.least_favored == ref["least"]
            and all(lower[a] == lower_new[a] == ref["lower"][a] for a in active)
            and all(upper[a] == upper_new[a] == ref["upper"][a] for a in active)
        )
        forth_fail += not ok

    elapsed = time.perf_counter() - t0
    ok = dpe_fail == 0 and upload_fail == 0 and forth_fail == 0 and elapsed < 60.0
    assert report(
        4,
        ok,
        f"state transfer fails {dpe_fail}/1000, upload fails {upload_fail}/"
        f"{num_upload_cases}, broadcast fails {forth_fail}/{len(cases)}, "
        f"{elapsed:.1f}s",
    )


# -- criterion 5: initialization correctness -----------------------------------


def _drive(policies, num_arms, sdi, max_slots, done):
    """Minimal lockstep loop with zero rewards (enough for init phases)."""
    for t in range(max_slots):
        arms = [p.next_action(t) for p in policies]
        counts: dict[int, int] = {}
        for a in arms:
            counts[a] = counts.get(a, 0) + 1
        for p, a in zip(policies, arms):
            c = counts[a]
            p.observe(Observation(a, 0.0, c if sdi else None, c > 1))
        if done(policies):
            return t + 1
    raise AssertionError("initialization did not finish in time")


def _env(num_arms, seed, feedback):
    return PublicEnvInfo(
        num_arms=num_arms,
        horizon=10**6,
        feedback=feedback,
        rng=np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7]))),
    )


def test_criterion_5_initialization():
    rally_ok = True
    ortho_ok = True
    mean_slots = {}
    for m in range(2, 7):
        slots = []
        for s in range(200):
            policies = [
                DpeSdiPolicy(i, _env(m + 1, s * 31 + i, Feedback.SDI))
                for i in range(m)
            ]
            total = _drive(
                policies, m + 1, True, 10**6,
                lambda ps: all(p._mode not in ("rally", "orthogonalize") for p in ps),
            )
            rally_ok &= all(p.num_players == m for p in policies)
            ortho_ok &= sorted(p.rank for p in policies) == list(range(m))
            slots.append(total - 1)  # exclude the rally slot
        mean_slots[m] = sum(slots) / len(slots)
    bounds_ok = all(
        mean_slots[m] <= m**4 + 2 * m**3 + m**2 for m in mean_slots
    )

    sic_ok = True
    for m in range(2, 7):
        for s in range(200):
            policies = [
                SicSdaPolicy(i, _env(9, s * 17 + i, Feedback.SDA)) for i in range(m)
            ]
            _drive(
                policies, 9, False, 10**6,
                lambda ps: all(p.rank is not None and p.rank >= 1 for p in ps),
            )
            sic_ok &= sorted(p.rank for p in policies) == list(range(1, m + 1))
            sic_ok &= all(p.num_players == m for p in policies)

    ok = rally_ok and ortho_ok and bounds_ok and sic_ok
    detail = (
        f"rally exact: {rally_ok}; rank permutations: {ortho_ok}; "
        f"mean ortho slots {({m: round(v, 1) for m, v in mean_slots.items()})} "
        f"within bounds: {bounds_ok}; rank sweep: {sic_ok} (1000 seeds each)"
    )
    assert report(5, ok, detail)


# -- criteria 6-8: synthetic-scenario behaviour --------------------------------


def test_criterion_6_convergence_to_optimal_play(synthetic_runs):
    shares = {}
    counts = {}
    for alg in ("dpe-sdi", "sic-sda", "sic-sdi"):
        fracs = [r.tail_optimal_fraction for r in synthetic_runs[alg]]
        counts[alg] = sum(f >= 0.99 for f in fracs)
        shares[alg] = statistics.median(fracs)
    elapsed = synthetic_runs["_elapsed"]
    ok = all(counts[alg] >= 18 for alg in counts) and elapsed < 600.0
    detail = "; ".join(
        f"{alg}: {counts[alg]}/20 seeds >= 99% optimal tail "
        f"(median share {shares[alg]:.3f})"
        for alg in counts
    )
    assert report(6, ok, f"{detail}; batch {elapsed:.0f}s")


def test_criterion_7_log_growth_proxy(synthetic_runs):
    medians = {}
    for alg in ("dpe-sdi", "sic-sda"):
        ratios = [
            r.checkpoint_regret[1] / r.checkpoint_regret[0]
            for r in synthetic_runs[alg]
        ]
        medians[alg] = statistics.median(ratios)
    ok = all(v < 3.0 for v in medians.values())
    detail = "; ".join(f"{alg}: median ratio {v:.2f}" for alg, v in medians.items())
    assert report(7, ok, detail + " (logarithmic ~1.25, linear ~10)")


def test_criterion_8_ordering_and_adapter(synthetic_runs):
    means = {
        alg: statistics.mean(r.final_regret for r in synthetic_runs[alg])
        for alg in ("dpe-sdi", "sic-sda", "sic-sdi")
    }
    by_seed = {
        alg: {r.seed: r for r in synthetic_runs[alg]} for alg in ("sic-sda", "sic-sdi")
    }
    traces_equal = all(
        by_seed["sic-sda"][s].checkpoint_regret == by_seed["sic-sdi"][s].checkpoint_regret
        and by_seed["sic-sda"][s].final_regret == by_seed["sic-sdi"][s].final_regret
        and by_seed["sic-sda"][s].tail_optimal_fraction
        == by_seed["sic-sdi"][s].tail_optimal_fraction
        for s in by_seed["sic-sda"]
    )
    ok = means["dpe-sdi"] < means["sic-sdi"] <= means["sic-sda"] and traces_equal
    detail = (
        f"mean final regret dpe-sdi {means['dpe-sdi']:.0f} < sic-sdi "
        f"{means['sic-sdi']:.0f} <= sic-sda {means['sic-sda']:.0f}; "
        f"matched-seed traces equal: {traces_equal}"
    )
    assert report(8, ok, detail)


# -- criterion 9: application scenarios ----------------------------------------


def test_criterion_9_application_scenarios(application_runs):
    edge = application_runs["edge"]
    cellular = application_runs["cellular"]
    edge_means = {
        alg: statistics.mean(r.final_regret for r in rs) for alg, rs in edge.items()
    }
    cell_means = {
        alg: statistics.mean(r.final_regret for r in rs) for alg, rs in cellular.items()
    }
    elapsed = application_runs["elapsed"]
    edge_ok = (
        edge_means["dpe-sdi"] < edge_means["highest-reward"]
        and edge_means["dpe-sdi"] < edge_means["idlest-arm"]
    )
    cell_ok = (
        cell_means["sic-sda"] < cell_means["highest-reward"]
        and cell_means["sic-sda"] < cell_means["idlest-arm"]
    )
    ok = edge_ok and cell_ok and elapsed < 1800.0
    detail = (
        f"edge: dpe-sdi {edge_means['dpe-sdi']:.0f} vs highest-reward "
        f"{edge_means['highest-reward']:.0f}, idlest-arm {edge_means['idlest-arm']:.0f}; "
        f"cellular: sic-sda {cell_means['sic-sda']:.0f} vs highest-reward "
        f"{cell_means['highest-reward']:.0f}, idlest-arm {cell_means['idlest-arm']:.0f}; "
        f"batch {elapsed:.0f}s"
    )
    assert report(9, ok, detail)


# -- criterion 10: decentralization audit ---------------------------------------


def test_criterion_10_decentralization_audit():
    import inspect

    env_fields = {f.name for f in dataclasses.fields(PublicEnvInfo)}
    env_ok = env_fields.isdisjoint({"means", "capacities", "num_players"})

    forbidden = {"means", "capacities", "num_players", "m", "mu"}
    sig_ok = True
    for cls in (DpeSdiPolicy, SicSdaPolicy, HighestRewardPolicy, IdlestArmPolicy):
        params = set(inspect.signature(cls.__init__).parameters) - {"self"}
        sig_ok &= params.isdisjoint(forbidden)
        sig_ok &= params <= {"player_id", "env", "delta"}

    spec = EnvSpec(5, 3, (0.9, 0.7, 0.5, 0.3, 0.1), (2, 1, 2, 1, 1), 2000,
                   feedback=Feedback.SDI, seed=4)
    allowed = {"arm", "reward", "count", "shared"}
    leaks = []
    blocks = []

    def audit(obs):
        if set(type(obs).__dataclass_fields__) != allowed:
            leaks.append("fields")
        if obs.count is not None and not 1 <= obs.count <= spec.num_players:
            leaks.append("count")
        if not 0.0 <= obs.reward <= spec.num_players:
            leaks.append("reward")

    class Audited(DpeSdiPolicy):
        def observe(self, obs):
            audit(obs)
            super().observe(obs)

    class AuditedSic(SicSdaPolicy):
        """Block outcomes too: each carries an observation and a hit count."""

        def observe(self, obs):
            audit(obs)
            super().observe(obs)

        def observe_block(self, outcomes):
            blocks.append(len(outcomes))
            for obs, hits, slots in outcomes:
                audit(obs)
                if not 0 <= hits <= slots:
                    leaks.append("hits")
            super().observe_block(outcomes)

    run(Audited, spec)
    run(AuditedSic, spec)
    ok = env_ok and sig_ok and not leaks and bool(blocks)
    assert report(
        10,
        ok,
        f"env fields clean: {env_ok}; constructor params clean: {sig_ok}; "
        f"observation leaks: {leaks or 'none'} "
        f"(sic-sdi block outcomes audited: {sum(blocks)})",
    )
