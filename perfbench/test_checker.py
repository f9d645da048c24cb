"""Tests of the benchmark's independent checker.

Run with ``python3 -m pytest perfbench/test_checker.py``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from checker import (
    RAW_HEADER,
    RegretReplay,
    check_raw_csv,
    optimal_counts,
    optimal_value,
    profile_value,
)


def _exhaustive_optimum(means, caps, num_players):
    """Best value over every way to put num_players players on the arms."""
    best = None
    for counts in itertools.product(range(num_players + 1), repeat=len(means)):
        if sum(counts) != num_players:
            continue
        value = profile_value(enumerate(counts), means, caps)
        if best is None or value > best:
            best = value
    return best


def _random_instance(rng):
    k = rng.randint(2, 7)
    m = rng.randint(1, min(k - 1, 4))
    # Means from a short list, so ties are common.
    means = [rng.choice([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0]) for _ in range(k)]
    caps = [rng.randint(1, m) for _ in range(k)]
    if sum(caps) < m:
        caps[0] = m
    return means, caps, m


def test_optimum_matches_exhaustive_enumeration():
    rng = random.Random(0)
    for _ in range(300):
        means, caps, m = _random_instance(rng)
        fstar = optimal_value(means, caps, m)
        assert fstar == _exhaustive_optimum(means, caps, m), (means, caps, m)
        counts = optimal_counts(means, caps, m)
        assert sum(counts) == m
        assert profile_value(enumerate(counts), means, caps) == fstar


def test_tied_means_pick_lower_arm():
    assert optimal_counts([0.5, 0.9, 0.5], [2, 1, 2], 2) == [1, 1, 0]


def test_replay_matches_hand_computed_regret():
    means, caps = [0.9, 0.5, 0.2], [1, 2, 1]
    replay = RegretReplay(means, caps, 2)
    assert replay.fstar == Fraction(0.9) + Fraction(0.5)
    replay(0, None, {0: 1, 1: 1})  # optimal
    replay(1, None, {0: 2})  # 0.9 * 1: gap 0.5
    replay(2, None, {2: 2})  # 0.2 * 1: gap 1.2
    assert replay.gaps[0] == 0.0
    assert replay.gaps[1] == float(Fraction(0.5))
    assert replay.check([1, 3], [0.0, 0.5 + 1.2], [True, False, False]) == []
    assert replay.check([3], [1.0], [True, False, False])
    assert replay.check([3], [1.7], [True, True, False])


def _write_raw(path, rows):
    path.write_text(
        "\n".join(",".join(map(str, r)) for r in [RAW_HEADER, *rows]) + "\n",
        encoding="utf-8",
    )


def test_raw_csv_rules(tmp_path):
    raw = tmp_path / "raw.csv"
    good = [("a", 0, 1, 0.0), ("a", 0, 10, 2.5), ("b", 0, 1, 0.5), ("b", 0, 10, 0.5)]
    _write_raw(raw, good)
    assert check_raw_csv(raw, ["a", "b"], [0], [1, 10], 10, {0: 5.0}) == (set(), [])

    _write_raw(raw, [("a", 0, 1, 3.0), ("a", 0, 10, 2.5), *good[2:]])
    bad, _ = check_raw_csv(raw, ["a", "b"], [0], [1, 10], 10, {0: 5.0})
    assert bad == {("a", 0)}

    _write_raw(raw, [*good[:2], ("b", 0, 1, 0.5), ("b", 0, 10, 6.0)])
    bad, _ = check_raw_csv(raw, ["a", "b"], [0], [1, 10], 10, {0: 5.0})
    assert bad == {("b", 0)}

    _write_raw(raw, good[:3])
    bad, _ = check_raw_csv(raw, ["a", "b"], [0], [1, 10], 10, {0: 5.0})
    assert bad == {("b", 0)}

    bad, _ = check_raw_csv(raw, ["a", "b"], [0], [1, 9], 10, {0: 5.0})
    assert bad == {("a", 0), ("b", 0)}
