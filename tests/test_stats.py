import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shareable_bandits.stats import (
    CapacityBounds,
    PlayerStats,
    bern_kl,
    capacity_interval,
    confidence_radius,
    klucb_at_least,
    klucb_budget,
    klucb_index,
    means_separated,
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
