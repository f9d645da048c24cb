import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shareable_bandits.stats import (
    CapacityBounds,
    PlayerStats,
    bern_kl,
    capacity_interval,
    closed_bracket_holds,
    confidence_radius,
    klucb_at_least,
    klucb_budget,
    klucb_index,
    means_separated,
    separated_pairs,
    update_capacity_bounds,
)

from oracles import klucb_grid


class TestBernKl:
    def test_identity_is_zero(self):
        for p in (0.0, 0.2, 0.5, 0.99):
            assert bern_kl(p, max(p, 1e-9)) <= 1e-12 or p == 0.0

    def test_known_value(self):
        # 0.5*ln(0.5/0.75) + 0.5*ln(0.5/0.25)
        assert bern_kl(0.5, 0.75) == pytest.approx(0.143841, abs=1e-6)

    def test_p_zero_branch(self):
        for q in (0.1, 0.5, 0.9):
            assert bern_kl(0.0, q) == pytest.approx(-math.log(1 - q))

    def test_p_one_branch(self):
        assert bern_kl(1.0, 0.5) == pytest.approx(math.log(2))


class TestKlucbIndex:
    def test_mu_one_gives_one(self):
        assert klucb_index(1.0, 5, 100) == 1.0

    def test_huge_pulls_pins_to_mean(self):
        assert klucb_index(0.4, 10**9, 100) == pytest.approx(0.4, abs=1e-3)

    def test_matches_grid_scan(self):
        q = klucb_index(0.5, 10, 100)
        ref = klucb_grid(0.5, 10, 100)
        assert q == pytest.approx(ref, abs=2e-6)
        assert 10 * bern_kl(0.5, q) == pytest.approx(klucb_budget(100), rel=1e-6)

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mu = float(rng.random())
            pulls = int(rng.integers(1, 5000))
            t = int(rng.integers(3, 10**6))
            idx = klucb_index(mu, pulls, t)
            assert mu <= idx <= 1.0
            assert klucb_index(mu, pulls, t * 10) >= idx - 1e-9
            assert klucb_index(mu, pulls * 10, t) <= idx + 1e-9

    def test_at_least_matches_index(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            mu = float(rng.random())
            pulls = int(rng.integers(1, 2000))
            t = int(rng.integers(3, 10**5))
            threshold = float(rng.random())
            expect = klucb_index(mu, pulls, t) >= threshold
            fast = klucb_at_least(mu, pulls, klucb_budget(t), threshold)
            if abs(klucb_index(mu, pulls, t) - threshold) > 1e-6:
                assert fast == expect


class TestConfidenceRadius:
    def test_known_value(self):
        # sqrt(2 * ln(2*sqrt(2)/0.1) / 2)
        assert confidence_radius(1, 0.1) == pytest.approx(1.8282, abs=1e-3)

    def test_formula_at_x4(self):
        expect = math.sqrt(1.25 * math.log(2 * math.sqrt(5) / 0.5) / 8)
        assert confidence_radius(4, 0.5) == pytest.approx(expect, rel=1e-12)

    def test_strictly_decreasing(self):
        values = [confidence_radius(x, 0.05) for x in range(1, 1001)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCapacityInterval:
    def test_spec_example(self):
        lo, hi = capacity_interval(0.5, 1.5, 0.1)
        assert (lo, hi) == (3, 3)

    def test_upper_skipped_when_denominator_nonpositive(self):
        lo, hi = capacity_interval(0.3, 0.9, 0.4)
        assert hi is None
        assert lo >= 1

    def test_lower_clamped_to_one(self):
        lo, _ = capacity_interval(0.9, 0.1, 0.05)
        assert lo == 1


class TestCapacityBounds:
    def test_monotone_and_learned(self):
        b = CapacityBounds(2, 6)
        b.update(0, 0.5, 1.5, 0.1)
        assert (b.lower[0], b.upper[0]) == (3, 3)
        assert b.learned(0)
        # Later, looser estimates cannot reopen the bracket.
        b.update(0, 0.5, 1.5, 0.3)
        assert (b.lower[0], b.upper[0]) == (3, 3)

    def test_upper_gate(self):
        b = CapacityBounds(1, 6)
        b.update(0, 0.5, 1.5, 0.1, allow_upper=False)
        assert b.lower[0] == 3
        assert b.upper[0] == 6

    def test_crossing_repair_pins_to_lower(self, caplog):
        b = CapacityBounds(1, 6)
        b.lower[0] = 4
        with caplog.at_level("WARNING"):
            b.update(0, 0.9, 1.0, 0.05)
        assert b.lower[0] == 4
        assert b.upper[0] == 4

    def test_stats_wrapper(self):
        stats = PlayerStats(1)
        for _ in range(2500):
            stats.add_individual(0, 0.5)
            stats.add_united(0, 1.5)
        b = CapacityBounds(1, 6)
        update_capacity_bounds(stats, 0, b, delta=0.05)
        assert b.lower[0] == 3
        assert b.upper[0] == 3


class TestClosedBracketHolds:
    def test_holds_only_when_the_full_update_is_inert(self, caplog):
        """Whenever the united radius alone keeps [c, c], the real update does too.

        Random closed brackets, some at the true capacity and some off by
        one or two so that updates cross; a third of the united means sit on
        an integer edge of the interval at the united radius.
        """
        rng = np.random.default_rng(11)
        outcomes = Counter()
        for _ in range(3000):
            max_units = int(rng.integers(1, 19))
            c = int(rng.integers(1, max_units + 1))
            true_c = max(1, c + int(rng.integers(-2, 3)))
            n_ie, n_ue = (int(10 ** rng.uniform(0, 5)) for _ in range(2))
            delta = 10 ** -rng.uniform(1, 6)
            mu = float(rng.uniform(0.0, 1.0))
            r_ue = confidence_radius(n_ue, delta)
            nu = true_c * mu * float(rng.uniform(0.9, 1.1))
            if rng.random() < 1 / 3:
                edge = (mu + r_ue) if rng.random() < 0.5 else abs(mu - r_ue)
                nu = (true_c + int(rng.integers(-1, 2))) * edge
            stats = PlayerStats(1)
            stats.add_individual(0, mu)
            stats.ie_count[0] = n_ie
            stats.ie_sum[0] = mu * n_ie
            stats.add_united(0, nu * n_ue, n_ue)
            holds = closed_bracket_holds(stats.mu_hat(0), stats.nu_hat(0), r_ue, c)
            bounds = CapacityBounds(1, max_units)
            bounds.lower[0] = bounds.upper[0] = c
            caplog.clear()
            with caplog.at_level("WARNING", logger="shareable_bandits.stats"):
                update_capacity_bounds(stats, 0, bounds, delta)
            crossed = bool(caplog.records)
            moved = (bounds.lower[0], bounds.upper[0]) != (c, c)
            if holds:
                assert not moved and not crossed, (mu, nu, n_ie, n_ue, delta, c)
            outcomes[holds, moved or crossed] += 1
        assert outcomes[True, False] > 300
        assert outcomes[False, True] > 300  # moved or crossed: never skipped
        assert outcomes[False, False] > 0  # inert, but only at the full radius


    def test_holds_on_an_interval_of_means(self):
        """Between two means where a closed bracket holds, it holds too.

        Means are drawn near the two edges nu / (mu + r) = c and
        nu / (mu - r) = c, a few ulps apart, and across [0, 1].
        """
        rng = np.random.default_rng(12)
        edges = 0
        for _ in range(400):
            c = int(rng.integers(1, 19))
            radius = float(10 ** rng.uniform(-4, -0.5))
            nu = c * float(rng.uniform(0.05, 1.0))
            mus = list(rng.uniform(0.0, 1.0, 40))
            for centre in (nu / c - radius, nu / c + radius):
                for step in range(-3, 4):
                    mu = centre
                    for _ in range(abs(step)):
                        mu = math.nextafter(mu, math.copysign(math.inf, step))
                    mus.append(mu)
            mus = sorted(m for m in mus if 0.0 <= m <= 1.0)
            held = [closed_bracket_holds(m, nu, radius, c) for m in mus]
            if True in held:
                first = held.index(True)
                last = len(held) - 1 - held[::-1].index(True)
                assert all(held[first : last + 1]), (nu, radius, c)
                edges += 0 < first or last < len(held) - 1
        assert edges > 100


class TestMeansSeparated:
    def test_identical_stats_not_separated(self):
        assert not means_separated(0.5, 100, 0.5, 100, 10**5)

    def test_wide_gap_with_many_samples(self):
        # KL bounds at budget ln(1e5) + 4 ln ln(1e5) ~ 21.3 over 1e4 pulls
        # sit within ~0.02 of each mean
        assert means_separated(0.9, 10000, 0.1, 10000, 10**5)

    def test_close_means_separate_at_kl_rate(self):
        # 0.025 apart near 0.8: the KL bounds (~0.012 per side) separate at
        # 5e4 pulls, where 3*sqrt(ln(1e5)/(2*5e4)) ~ 0.032 per side cannot
        assert means_separated(0.800, 50_000, 0.775, 50_000, 10**5)
        assert not means_separated(0.775, 50_000, 0.800, 50_000, 10**5)
        assert not means_separated(0.800, 5_000, 0.775, 5_000, 10**5)

    def test_single_sample_never_separates(self):
        assert not means_separated(1.0, 1, 0.0, 1, 10**5)
        assert not means_separated(1.0, 1, 0.0, 10**6, 10**5)

    def test_all_pairs_match_pairwise_calls(self):
        rng = np.random.default_rng(4)
        separated = 0
        for _ in range(200):
            arms = sorted(int(k) for k in rng.choice(20, int(rng.integers(1, 8)), replace=False))
            # Tied means and tied pull counts come up often.
            levels = rng.uniform(0.0, 1.0, 3)
            mu = {k: float(rng.choice([*levels, 0.0, 1.0])) for k in arms}
            pulls = {k: int(rng.choice([1, 50, 5_000, 60_000])) for k in arms}
            horizon = int(rng.choice([1_000, 100_000, 200_000]))
            sep = separated_pairs(mu, pulls, arms, horizon)
            assert sep == {
                (k, j): means_separated(mu[k], pulls[k], mu[j], pulls[j], horizon)
                for k in arms
                for j in arms
                if k != j
            }
            separated += sum(sep.values())
        assert separated > 100


class TestCapacityCoverageQuick:
    """Smaller-scale version of the acceptance coverage check."""

    def test_interval_covers_true_capacity(self):
        rng = np.random.default_rng(21)
        mu, m, delta = 0.6, 3, 0.05
        failures = 0
        reps = 200
        n = 600
        for _ in range(reps):
            ie = rng.random(n) < mu
            ue = m * (rng.random(n) < mu)
            mu_hat = np.cumsum(ie) / np.arange(1, n + 1)
            nu_hat = np.cumsum(ue) / np.arange(1, n + 1)
            rad = np.array([confidence_radius(x, delta) for x in range(1, n + 1)])
            ok = True
            lo, hi = 1, 6
            for i in range(n):
                rsum = 2 * rad[i]
                raw_lo, raw_hi = capacity_interval(mu_hat[i], nu_hat[i], rsum)
                lo = max(lo, min(raw_lo, 6))
                if raw_hi is not None:
                    hi = min(hi, max(raw_hi, 1))
                if not lo <= m <= hi:
                    ok = False
                    break
            failures += not ok
        assert failures / reps <= 0.06


@settings(max_examples=100, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    q=st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False),
)
def test_kl_nonnegative(p, q):
    assert bern_kl(p, q) >= -1e-12


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
    pulls=st.integers(min_value=1, max_value=10**6),
    t=st.integers(min_value=3, max_value=10**7),
)
def test_klucb_index_bounds(mu, pulls, t):
    idx = klucb_index(mu, pulls, t)
    assert mu - 1e-12 <= idx <= 1.0
