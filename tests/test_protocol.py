from collections import Counter

import numpy as np
import pytest

from shareable_bandits.protocol import Orthogonalization, ProtocolCorruptionError


def lockstep(num_claims, num_players, seed):
    """Drive routines through shared slots; returns each one's last slot and claim."""
    routines = [
        Orthogonalization(num_claims, np.random.default_rng([seed, i]))
        for i in range(num_players)
    ]
    last = [None] * num_players
    for slot in range(100_000):
        arms = [r.next_arm() for r in routines]
        counts = Counter(arms)
        for i, (r, arm) in enumerate(zip(routines, arms)):
            if last[i] is None and r.observe(counts[arm] > 1):
                last[i] = slot
        if all(s is not None for s in last):
            return last, [r.claim for r in routines]
        if any(s is not None for s in last):
            raise AssertionError(f"routines ended in different slots: {last}")
    raise AssertionError("orthogonalization did not end")


def test_lockstep_routines_end_together_on_distinct_claims():
    rng = np.random.default_rng(21)
    for case in range(300):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(1, n + 1))
        last, claims = lockstep(n, m, case)
        assert len(set(last)) == 1
        assert (last[0] + 1) % (n + 1) == 0  # a whole number of rounds
        assert sorted(set(claims)) == sorted(claims)
        assert all(0 <= c < n for c in claims)


def test_ending_unclaimed_is_corruption():
    routine = Orthogonalization(3, np.random.default_rng(0))
    routine.next_arm()
    assert routine.observe(True) is False  # lost the draw at slot 0
    for _ in range(2):
        assert routine.next_arm() == 3  # waits on the spare
        assert routine.observe(False) is False
    routine.next_arm()
    # Nobody ever shared the spare, yet this player holds no claim.
    with pytest.raises(ProtocolCorruptionError, match="unclaimed"):
        routine.observe(False)
