"""Phase-based elimination policy for 1-bit (SDA) feedback.

Players orthogonalize onto K-1 arms (``protocol.Orthogonalization``,
shared with DPE-SDI), then a fixed 2K-2-slot sweep turns
arm claims into dense ranks and reveals the player count. Afterwards the
active players loop through doubling exploration phases and two scheduled
communication blocks, following SIC-MMAB (Boursier & Perchet, NeurIPS
2019): followers upload their per-arm reward sums to the leader, then the
leader sends every follower one binary message with the
accept/reject/least-favored flags and the new capacity bounds. Accepted
arms absorb exactly their capacity in players; everyone else keeps
exploring until the last needed arm is certified.

Both blocks move bits over one channel. A block is a run of stages; a stage
is a list of (speaker rank, listener rank) pairs that take turns on the
read arm ``active[0]``, each moving the same number of bits from the
speaker's outbox into the listener's inbox. The listener sits on the read
arm and the speaker joins it for a 1 bit (the listener reads the shared
flag). For a 0 bit the speaker keeps its seat, except the leader, whose
seat is the read arm: it takes the listener's seat. The upload is one
stage, (r, 1) for every rotating follower r, of one cell per active arm;
the broadcast is a news-mask stage, (1, r) for every follower r, then a
payload stage sized by the mask. A stage with no pairs ends at once, so a
lone active player spends no slot communicating. At the end of a broadcast
every player, the leader included, decodes the same bits.

Every arm a player plays in a stage is known when the stage starts, so the
stage is a plan: one arm per slot, and the range of slots whose shared
flags the player keeps (all of an upload for the leader, its own pair of a
broadcast for a follower). The rank sweep is a plan too, heard in full.
The engine takes a plan as blocks (``schedule``, ``observe_block``); only
orthogonalization is stepped.

Extensions beyond SIC-MMAB, all but the last aimed at the cost of
communication:

- the only arm read is the leader's exploration arm ``active[0]``; every
  player that is not signalling keeps its own exploration arm (an anchor on
  ``active[0]`` moves to ``active[1]``), so communication slots keep the
  exploration profile instead of piling idle players onto one arm;
- the broadcast runs once per phase: a news mask with one bit per active
  arm, then flags and binary bounds for the flagged arms only, rather than
  unary rounds that move each bound by one unit (the codec is
  ``protocol.broadcast_message``, shared with DPE-SDI);
- a united-exploration rally uses min(M_t, upper bound) players, the
  fewest that still saturate the arm;
- upload cells are sized by the largest per-arm load, not by M;
- means are separated with KL confidence bounds
  (``stats.means_separated``, all pairs at once by
  ``stats.separated_pairs``), not with the Hoeffding radius.

The same state machine runs unchanged under count (SDI) feedback, where the
shared flag is implied by the count.
"""

from __future__ import annotations

from collections.abc import Sequence

from .engine import Observation, PublicEnvInfo
from .protocol import (
    LeaderDecision,
    Orthogonalization,
    ProtocolCorruptionError,
    bound_bits,
    broadcast_message,
    decode_bits,
    encode_stat,
    payload_bits,
    read_broadcast,
)
from .stats import CapacityBounds, PlayerStats, separated_pairs, update_capacity_bounds


def upload_bits(phase: int, max_load: int) -> int:
    """Bits per upload cell: a phase-p per-arm reward sum is at most L * 2^p.

    A rotating player visits each active arm 2^p times per phase and every
    visit pays at most the arm's load, so ``max_load`` is the largest
    per-arm exploration allocation (at most M).
    """
    return phase + 1 + (max_load - 1).bit_length()


def rank_assign_arm(ext_rank: int, slot: int, num_arms: int) -> int:
    """Arm played in the rank-assignment sweep (0-based arm index).

    ``ext_rank`` is the 1-based arm claim from orthogonalization and
    ``slot`` is 1-based within the 2K-2-slot sweep. Each player sits on its
    claimed arm except for one hop window, so every pair of players shares
    an arm exactly once (on the higher claim's arm).
    """
    if slot <= 2 * ext_rank or slot >= num_arms + ext_rank:
        return ext_rank - 1
    return slot - ext_rank - 1


def evaluate_accept_reject(
    mu_hat: dict[int, float],
    pulls: dict[int, int],
    active: list[int],
    active_players: int,
    lower: list[int],
    upper: list[int],
    learned: set[int],
    horizon: int,
) -> LeaderDecision:
    """Classify active arms from merged statistics and capacity bounds.

    An arm is accepted when it is fully learned and the capacity upper
    bounds of every arm it cannot dominate fit within the active players;
    rejected when confidently dominated arms can already absorb everyone;
    the least-favored arm dominates all other active arms and can absorb
    all remaining players by itself.
    """
    sep = separated_pairs(mu_hat, pulls, active, horizon)
    decision = LeaderDecision()
    for k in active:
        tied_upper = upper[k] + sum(upper[j] for j in active if j != k and not sep[k, j])
        if k in learned and tied_upper <= active_players:
            decision.accepted.add(k)
        dominated_lower = sum(lower[j] for j in active if j != k and sep[j, k])
        if dominated_lower >= active_players:
            decision.rejected.add(k)
        if (
            lower[k] >= active_players
            and all(sep[k, j] for j in active if j != k)
        ):
            if decision.least_favored is not None:
                raise ProtocolCorruptionError("two arms both dominate all others")
            decision.least_favored = k
    overlap = decision.accepted & decision.rejected
    if overlap:
        raise ProtocolCorruptionError(f"arms {overlap} both accepted and rejected")
    return decision


def apply_decision(
    rank: int,
    decision: LeaderDecision,
    active: list[int],
    active_players: int,
    lower: list[int],
) -> tuple[int | None, list[int], int, dict[int, int]]:
    """Shared post-broadcast update: who exploits what, who stays active.

    Returns (exploit_arm or None, new active arms, new active player count,
    allocation per active arm for the next exploration phase). Ranks above
    the new player count exploit the accepted arms, filled in index order
    by capacity; if a least-favored arm exists every active player exploits
    it; the remaining players rebuild the exploration allocation.
    """
    accepted = sorted(decision.accepted)
    players_left = active_players - sum(lower[k] for k in accepted)
    new_active = [
        k
        for k in active
        if k not in decision.accepted
        and k not in decision.rejected
        and k != decision.least_favored
    ]
    if decision.least_favored is not None:
        return decision.least_favored, new_active, players_left, {}
    if rank > players_left:
        target = rank - players_left
        total = 0
        for k in accepted:
            total += lower[k]
            if total >= target:
                return k, new_active, players_left, {}
        raise ProtocolCorruptionError(
            f"rank {rank} has no accepted arm slot (capacity total {total})"
        )
    if players_left > 0 and not new_active:
        raise ProtocolCorruptionError("active players remain but no arms do")
    alloc = {k: 1 for k in new_active}
    surplus = players_left - len(new_active)
    if surplus > 0:
        for k in new_active:
            add = min(lower[k] - 1, surplus)
            alloc[k] += add
            surplus -= add
            if surplus == 0:
                break
        if surplus > 0:
            raise ProtocolCorruptionError(
                f"{surplus} players cannot be packed under the capacity lower bounds"
            )
    return None, new_active, players_left, alloc


def anchored_arm(rank: int, active: list[int], lower: list[int]) -> int:
    """Fixed arm for ranks beyond the rotating set during exploration.

    Rank K_t + r fills the r-th spare capacity unit, walking active arms in
    index order with lower-bound-1 spare units each.
    """
    target = rank - len(active)
    total = 0
    for k in active:
        total += lower[k] - 1
        if total >= target:
            return k
    raise ProtocolCorruptionError(
        f"rank {rank} exceeds spare capacity of active arms {active}"
    )


def comm_seat(rank: int, active: list[int], lower: list[int]) -> int:
    """Arm an idle active player holds during communication.

    Its exploration arm: ``active[rank - 1]`` for the rotating ranks, its
    anchor beyond them. The read arm ``active[0]`` belongs to the leader
    (rank 1), so an anchor there moves to ``active[1]``.
    """
    if rank <= len(active):
        return active[rank - 1]
    arm = anchored_arm(rank, active, lower)
    return active[1] if arm == active[0] else arm


# Internal mode tags.
_ORTHO = "orthogonalize"
_RANK = "rank-assign"
_IE = "explore-individual"
_UE = "explore-united"
_BACK = "comm-upload"
_FORTH = "comm-broadcast"
_EXPLOIT = "exploit"


class SicSdaPolicy:
    """Per-player state machine; runs under SDA or SDI feedback.

    Only the 1-bit shared flag is consumed, so count feedback degrades
    gracefully to the same behaviour (the SDI adapter is this same class).

    Every mode but orthogonalization is fixed when it starts, so the rest
    of it is an engine block (``schedule``): an exploration stage, the rank
    sweep and each communication stage (the rest of its plan), and the
    exploit phase, one arm to the horizon. One slot counter and one length
    cover every mode, and ``_end_stage`` says what follows each. A stepped
    ``observe`` goes through ``observe_block``. Orthogonalization is stepped.
    """

    def __init__(
        self, player_id: int, env: PublicEnvInfo, *, delta: float | None = None
    ) -> None:
        self.num_arms = env.num_arms
        if self.num_arms < 2:
            raise ValueError("need at least two arms to orthogonalize")
        self.horizon = env.horizon
        self.rng = env.rng
        self.delta = 2.0 / env.horizon if delta is None else delta

        self.phase = "init"
        self._mode = _ORTHO
        self.num_players: int | None = None
        self.rank: int | None = None  # 1-based dense rank, 1 = leader
        self.exploit_arm: int | None = None

        self._ortho = Orthogonalization(self.num_arms - 1, self.rng)

        # Shared loop state (identical across active players).
        self.active: list[int] = list(range(self.num_arms))
        self.active_players = 0
        self.phase_num = 1
        self.alloc: dict[int, int] = {}
        self.lower: list[int] = []
        self.upper: list[int] = []

        self._slot = 0  # slot counter within the current mode
        self._len = 0  # slots of the current mode, up to its end handler
        self._ue_arms: list[int] = []
        self._anchor: int | None = None
        self._seat = 0  # arm held while idle during communication
        self._phase_sums: list[int] = [0] * self.num_arms

        # Planned stages (the rank sweep and communication): the arm of every
        # slot, and the slots [lo, hi) whose shared flags go to the inbox.
        self._plan: list[int] = []
        self._listen = (0, 0)
        # Communication: stages of (speaker rank, listener rank) pairs.
        self._pairs: list[tuple[int, int]] = []
        self._stage_len = 0  # bits each pair moves in the current stage
        self._stage_start = 0  # outbox position where the stage begins
        self._outbox: list[int] = []
        self._inbox: list[int] = []
        self._seen = LeaderDecision()
        self._bound_nbits = 0

        # Leader-only state.
        self.stats: PlayerStats | None = None
        self.bounds: CapacityBounds | None = None

    @property
    def is_leader(self) -> bool:
        return self.rank == 1

    def _begin(self, mode: str, length: int) -> None:
        """Enter ``mode`` for ``length`` slots; ``_end_stage`` runs after them."""
        self._mode = mode
        self._slot = 0
        self._len = length

    def _begin_plan(self, mode: str, plan: list[int], listen: tuple[int, int]) -> None:
        """Enter a planned stage: ``plan`` holds the arm of each of its slots."""
        self._plan = plan
        self._listen = listen
        self._begin(mode, len(plan))
        if not plan:
            self._end_stage()

    def _begin_explore(self) -> None:
        self.phase = "explore"
        self._phase_sums = [0] * self.num_arms
        self._anchor = None
        if self.rank > len(self.active):
            self._anchor = anchored_arm(self.rank, self.active, self.lower)
        self._seat = comm_seat(self.rank, self.active, self.lower)
        self._ue_arms = [k for k in self.active if self.lower[k] != self.upper[k]]
        self._begin(_IE, len(self.active) << self.phase_num)

    def _begin_rank_sweep(self) -> None:
        # Every player listens to the whole sweep.
        claim, sweep = self._ortho.claim + 1, 2 * self.num_arms - 2
        plan = [rank_assign_arm(claim, s, self.num_arms) for s in range(1, sweep + 1)]
        self._inbox = []
        self._begin_plan(_RANK, plan, (0, sweep))

    # -- communication: speaker -> listener stages on the read arm -----------

    def _begin_upload(self) -> None:
        # Each rotating follower sends the leader one cell per active arm.
        k_t = len(self.active)
        nbits = upload_bits(self.phase_num, max(self.alloc.values()))
        sums = self._phase_sums
        self._outbox = [b for k in self.active for b in encode_stat(sums[k], nbits)]
        self._inbox = []
        pairs = [(r, 1) for r in range(2, min(self.active_players, k_t) + 1)]
        self._begin_stage(_BACK, pairs, k_t * nbits)

    def _begin_broadcast(self) -> None:
        # The leader sends every follower the news mask, then the payload.
        self._outbox = self._run_accept_reject() if self.is_leader else []
        self._inbox = []
        pairs = [(1, r) for r in range(2, self.active_players + 1)]
        self._begin_stage(_FORTH, pairs, len(self.active))

    def _begin_stage(
        self, mode: str, pairs: list[tuple[int, int]], stage_len: int, start: int = 0
    ) -> None:
        """Each pair in turn moves ``stage_len`` bits, from the speaker's
        outbox at ``start`` into the listener's inbox.

        The plan fixes every slot's arm: a listener sits on the read arm; a
        speaker joins it for a 1 bit and otherwise keeps its seat, or takes
        the listener's if it is the leader; everyone else keeps its seat. A
        player listens to one pair (a follower in a broadcast) or to all of
        them (the leader in an upload), so its listening slots are one range.
        With no pairs (one active player) the stage ends at once.
        """
        self.phase = "comm"
        self._pairs = pairs
        self._stage_len = stage_len
        self._stage_start = start
        read, rank = self.active[0], self.rank
        plan: list[int] = []
        heard = []
        for p, (speaker, listener) in enumerate(pairs):
            if rank == listener:
                plan += [read] * stage_len
                heard.append(p)
            elif rank == speaker:
                zero = self._seat
                if self.is_leader:
                    zero = comm_seat(listener, self.active, self.lower)
                plan += [read if bit else zero for bit in self._outbox[start : start + stage_len]]
            else:
                plan += [self._seat] * stage_len
        listen = (heard[0] * stage_len, (heard[-1] + 1) * stage_len) if heard else (0, 0)
        self._begin_plan(mode, plan, listen)

    def _end_stage(self) -> None:
        """What follows the current mode's last slot."""
        mode = self._mode
        if mode == _IE and self._ue_arms:
            self._begin(_UE, len(self._ue_arms) << self.phase_num)
            return
        if mode == _IE or mode == _UE:
            self._begin_upload()
            return
        if mode == _RANK:
            flags = self._inbox  # a claim's rank counts the first 2 * claim
            self.rank = 1 + sum(flags[: 2 * (self._ortho.claim + 1)])
            self.num_players = 1 + sum(flags)
            self._start_loop()
            return
        if mode == _BACK:
            if self.is_leader:
                self._leader_merge()
            self._begin_broadcast()
            return
        k_t = len(self.active)
        message = self._outbox if self.is_leader else self._inbox
        if self._stage_start == 0:
            # Every follower now holds the news mask, which sizes the rest.
            payload_len = payload_bits(message[:k_t], self._bound_nbits)
            if payload_len:
                self._begin_stage(_FORTH, self._pairs, payload_len, k_t)
                return
        self._seen, bounds = read_broadcast(message, self.active, self._bound_nbits)
        for arm, (lower, upper) in bounds.items():
            self.lower[arm] = lower
            self.upper[arm] = upper
        self._finish_comm()

    # -- leader statistics --------------------------------------------------

    def _leader_merge(self) -> None:
        """Fold own and uploaded per-phase sums into the leader statistics."""
        stats = self.stats
        k_t = len(self.active)
        nbits = self._stage_len // k_t
        inbox = self._inbox
        cells = [decode_bits(inbox[i : i + nbits]) for i in range(0, len(inbox), nbits)]
        share = (1 << self.phase_num) * (1 + len(self._pairs))
        for idx, arm in enumerate(self.active):
            total = self._phase_sums[arm] + sum(cells[idx::k_t])
            stats.ie_sum[arm] += total / self.alloc.get(arm, 1)
            stats.ie_count[arm] += share

    def _run_accept_reject(self) -> list[int]:
        """Decide on the active arms; return the message that announces it."""
        stats, bounds = self.stats, self.bounds
        for k in self._ue_arms:
            if stats.ue_count[k] > 0:
                # United samples only witness capacity up to the rally size.
                update_capacity_bounds(
                    stats,
                    k,
                    bounds,
                    self.delta,
                    allow_upper=self.active_players >= bounds.upper[k],
                )
        mu = {k: stats.mu_hat(k) for k in self.active}
        pulls = {k: stats.ie_count[k] for k in self.active}
        learned = {k for k in self.active if bounds.learned(k)}
        decision = evaluate_accept_reject(
            mu,
            pulls,
            self.active,
            self.active_players,
            bounds.lower,
            bounds.upper,
            learned,
            self.horizon,
        )
        return broadcast_message(
            decision,
            self.active,
            self.lower,
            self.upper,
            bounds.lower,
            bounds.upper,
            self._bound_nbits,
        )

    # -- shared post-communication update ------------------------------------

    def _finish_comm(self) -> None:
        exploit, new_active, players_left, alloc = apply_decision(
            self.rank, self._seen, self.active, self.active_players, self.lower
        )
        self.active = new_active
        self.active_players = players_left
        self.phase_num += 1
        if exploit is None and len(self.active) == 1:
            # Bit signalling needs two arms; with one arm left all active
            # players sit on it for good, which is already optimal play.
            exploit = self.active[0]
        if exploit is not None:
            self.exploit_arm = exploit
            self._mode = _EXPLOIT
            self.phase = "exploit"
            return
        self.alloc = alloc
        self._begin_explore()

    # -- engine interface -----------------------------------------------------

    def schedule(self, t: int) -> tuple[int, tuple[int, ...]] | None:
        """The rest of the current stage or of the run as an engine block, or None.

        Individual exploration: a rotating rank cycles through the active
        arms from ``active[(rank - 1 + t) % K_t]``, an anchor sits still.
        United exploration: everyone cycles through the rally arms, and a
        rank above an arm's upper bound holds its seat instead. The rank
        sweep and communication: the rest of the plan. Exploit: the exploit
        arm until the horizon. Orthogonalization: None.
        """
        mode = self._mode
        if mode == _ORTHO:
            return None
        n = self._len - self._slot
        if mode == _IE:
            if self._anchor is not None:
                return n, (self._anchor,)
            active = self.active
            k = (self.rank - 1 + t) % len(active)
            return n, tuple(active[k:] + active[:k])
        if mode == _UE:
            rally = self._ue_arms
            k = self._slot % len(rally)
            # Only upper-bound many players are needed to saturate an arm.
            return n, tuple(
                arm if self.rank <= self.upper[arm] else self._seat
                for arm in rally[k:] + rally[:k]
            )
        if mode == _EXPLOIT:
            return self.horizon - t, (self.exploit_arm,)
        return n, tuple(self._plan[self._slot :])

    def observe_block(self, outcomes: Sequence[tuple[Observation, int, int]]) -> None:
        """Fold a block's outcomes, one (hit obs, hits, slots) per position."""
        mode = self._mode
        if mode == _EXPLOIT:
            return
        if mode == _IE:
            if self._anchor is None:
                sums = self._phase_sums
                for obs, hits, _ in outcomes:
                    sums[obs.arm] += int(obs.reward + 0.5) * hits
            self._slot += sum(slots for _, _, slots in outcomes)
        elif mode == _UE:
            if self.is_leader:
                for obs, hits, slots in outcomes:
                    self.stats.add_united(obs.arm, obs.reward * hits, slots)
            self._slot += sum(slots for _, _, slots in outcomes)
        else:
            # A planned stage states the rest of its plan, so each outcome
            # is one slot. The shared flag does not depend on the draw.
            slot = self._slot
            lo, hi = self._listen
            heard = outcomes[max(lo - slot, 0) : max(hi - slot, 0)]
            self._inbox += [1 if obs.shared else 0 for obs, _, _ in heard]
            self._slot = slot + len(outcomes)
        if self._slot == self._len:
            self._end_stage()

    def next_action(self, t: int) -> int:
        mode = self._mode
        if mode == _EXPLOIT:
            return self.exploit_arm
        if mode == _ORTHO:
            return self._ortho.next_arm()
        if mode == _IE or mode == _UE:
            return self.schedule(t)[1][0]
        return self._plan[self._slot]

    def observe(self, obs: Observation) -> None:
        if self._mode == _ORTHO:
            if self._ortho.observe(obs.shared):
                self._begin_rank_sweep()
        else:
            # A miss carries reward 0, so one hit of it adds nothing.
            self.observe_block([(obs, 1, 1)])

    def _start_loop(self) -> None:
        self.active = list(range(self.num_arms))
        self.active_players = self.num_players
        self.phase_num = 1
        self.lower = [1] * self.num_arms
        self.upper = [self.num_players] * self.num_arms
        self.alloc = {k: 1 for k in self.active}
        self._bound_nbits = bound_bits(self.num_players)
        if self.active_players > len(self.active):
            raise ProtocolCorruptionError("more active players than arms at start")
        if self.is_leader:
            self.stats = PlayerStats(self.num_arms)
            self.bounds = CapacityBounds(self.num_arms, self.num_players)
        self._begin_explore()
