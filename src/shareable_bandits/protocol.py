"""Coordination shared by DPE-SDI and SIC-SDA: orthogonalization and broadcast.

``Orthogonalization`` is the musical-chairs start both policies run before
their main loop, so every player ends up holding a distinct claim.

The broadcast codec sends the leader's accept/reject/least-favored decision
and the capacity bounds that moved as one binary message: a news mask with
one bit per arm, then, for each arm with news, three flag bits and its lower
and upper bound minus one in ``bound_bits(M)`` bits each. Each policy
supplies its own channel (which arm is read and what counts as a 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ProtocolCorruptionError(RuntimeError):
    """Players' synchronized state diverged; signals a desync bug."""


class Orthogonalization:
    """Musical chairs over claims 0..n-1, with arm n as the spare.

    A round lasts n + 1 slots. At slot 0 an unclaimed player draws a claim
    uniformly and keeps it if it was alone on the arm; in slot s >= 1 the
    holder of claim s - 1 hops to the spare. Unclaimed players wait on the
    spare, where they meet each other or a hopping holder, so a round with
    no sharing after slot 0 ends the procedure for every player at once.
    """

    def __init__(self, num_claims: int, rng) -> None:
        self.num_claims = num_claims
        self.rng = rng
        self.claim: int | None = None
        self._slot = 0
        self._draw = 0
        self._saw_sharing = False

    def next_arm(self) -> int:
        s = self._slot
        if s == 0:
            if self.claim is None:
                self._draw = int(self.rng.integers(self.num_claims))
                return self._draw
            return self.claim
        if self.claim is None or s == self.claim + 1:
            return self.num_claims
        return self.claim

    def observe(self, shared: bool) -> bool:
        """Record one slot's sharing flag; True once the procedure has ended."""
        s = self._slot
        if s == 0:
            if self.claim is None and not shared:
                self.claim = self._draw
        elif shared:
            self._saw_sharing = True
        self._slot = s + 1
        if self._slot <= self.num_claims:
            return False
        if self._saw_sharing:
            self._slot = 0
            self._saw_sharing = False
            return False
        if self.claim is None:
            raise ProtocolCorruptionError(
                "orthogonalization ended while a player is unclaimed"
            )
        return True


NUM_FLAG_STEPS = 3  # reject / accept / least-favored bits per arm with news


def encode_stat(value: int, nbits: int) -> list[int]:
    """MSB-first bit encoding of a non-negative integer reward sum."""
    if value < 0 or value >= 1 << nbits:
        raise ValueError(f"value {value} does not fit in {nbits} bits")
    return [(value >> (nbits - 1 - b)) & 1 for b in range(nbits)]


def decode_bits(bits: list[int]) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | (1 if b else 0)
    return out


def bound_bits(num_players: int) -> int:
    """Bits per broadcast capacity bound: a bound b in [1, M] is sent as b - 1."""
    return max(1, (num_players - 1).bit_length())


def payload_bits(mask: list[int], nbits: int) -> int:
    """Message bits after the news ``mask``: flags and two bounds per arm with news."""
    return sum(mask) * (NUM_FLAG_STEPS + 2 * nbits)


@dataclass
class LeaderDecision:
    """Output of one accept/reject evaluation, broadcast to followers."""

    accepted: set[int] = field(default_factory=set)
    rejected: set[int] = field(default_factory=set)
    least_favored: int | None = None


def broadcast_message(
    decision: LeaderDecision,
    active: list[int],
    lower_view: list[int],
    upper_view: list[int],
    lower: list[int],
    upper: list[int],
    nbits: int,
) -> list[int]:
    """The bits the leader sends after a decision.

    A news mask with one bit per active arm, set when the arm is flagged or
    its bounds moved away from the shared view; then, for each arm in the
    mask, its three flag bits and its lower and upper bound minus one, MSB
    first in ``nbits`` bits each. The mask has a known length, and it fixes
    the length of the rest.
    """
    mask, payload = [], []
    for arm in active:
        flags = [
            int(arm in decision.rejected),
            int(arm in decision.accepted),
            int(arm == decision.least_favored),
        ]
        news = any(flags) or (lower[arm], upper[arm]) != (lower_view[arm], upper_view[arm])
        mask.append(int(news))
        if news:
            payload += flags
            payload += encode_stat(lower[arm] - 1, nbits)
            payload += encode_stat(upper[arm] - 1, nbits)
    return mask + payload


def read_broadcast(
    bits: list[int], active: list[int], nbits: int
) -> tuple[LeaderDecision, dict[int, tuple[int, int]]]:
    """Follower-side inverse of ``broadcast_message``.

    Returns the decision and the (lower, upper) bracket of every arm in the
    news mask; the other arms keep their bounds.
    """
    decision = LeaderDecision()
    bounds = {}
    pos = len(active)
    for arm, news in zip(active, bits):
        if not news:
            continue
        rejected, accepted, least = bits[pos : pos + NUM_FLAG_STEPS]
        pos += NUM_FLAG_STEPS
        if rejected:
            decision.rejected.add(arm)
        if accepted:
            decision.accepted.add(arm)
        if least:
            if decision.least_favored is not None:
                raise ProtocolCorruptionError("two different least-favored signals")
            decision.least_favored = arm
        lower = decode_bits(bits[pos : pos + nbits]) + 1
        upper = decode_bits(bits[pos + nbits : pos + 2 * nbits]) + 1
        pos += 2 * nbits
        bounds[arm] = (lower, upper)
    return decision, bounds
