"""Statistical kernel shared by the policies.

Bernoulli KL divergence and its UCB index, the anytime confidence radius
used to bracket an arm's shareable capacity from individual (per-load) and
united (full-load) reward samples, and the KL mean-separation indicator
used by elimination-style policies.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

_log = logging.getLogger(__name__)

_Q_EPS = 1e-12  # keep kl(., q) finite near q = 1
_INT_EPS = 1e-12  # absorb float noise before integer rounding


def bern_kl(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q), natural log.

    Defined for q in (0, 1); callers clamp q away from {0, 1}. Uses the
    0*log(0) = 0 convention at p in {0, 1}.
    """
    if p <= 0.0:
        return -math.log1p(-q)
    if p >= 1.0:
        return -math.log(q)
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def klucb_budget(t: int) -> float:
    """Exploration budget ln(t) + 4 ln(ln(t)), clamped below t = 3.

    The clamp keeps ln(ln(t)) defined for the first couple of slots; indices
    are only consulted after warm-up, so it is inert in practice.
    """
    t = max(t, 3)
    return math.log(t) + 4.0 * math.log(math.log(t))


def klucb_index(mu_hat: float, pulls: int, t: int) -> float:
    """Upper confidence index: sup{q >= mu_hat : pulls * kl(mu_hat, q) <= budget}.

    Solved by bisection on [mu_hat, 1); 60 halvings put the answer well
    within 1e-7 absolute.
    """
    if pulls < 1:
        raise ValueError("pulls must be >= 1")
    if mu_hat >= 1.0:
        return 1.0
    budget = klucb_budget(t) / pulls
    lo, hi = mu_hat, 1.0 - _Q_EPS
    if bern_kl(mu_hat, hi) <= budget:
        return 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bern_kl(mu_hat, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def klucb_at_least(mu_hat: float, pulls: int, budget: float, threshold: float) -> bool:
    """Whether klucb_index(mu_hat, pulls, t) >= threshold, given klucb_budget(t).

    kl(mu_hat, q) is increasing in q on [mu_hat, 1), so the index clears the
    threshold iff the divergence at the threshold still fits the budget.
    """
    if mu_hat >= threshold:
        return True
    q = min(threshold, 1.0 - _Q_EPS)
    return pulls * bern_kl(mu_hat, q) <= budget


def klucb_arms_at_least(
    mu_hat: list[float],
    pulls: list[int],
    arms: list[int],
    budget: float,
    threshold: float,
) -> list[int]:
    """The arms k of ``arms``, in order, that pass klucb_at_least at ``budget``.

    Each arm is tested as klucb_at_least(mu_hat[k], pulls[k], budget,
    threshold) tests it, with the same floats: the clamp and ``bern_kl``'s
    expression are written out so that an arm costs no call.
    """
    q = min(threshold, 1.0 - _Q_EPS)
    log = math.log
    passed = []
    for k in arms:
        p = mu_hat[k]
        if p >= threshold:
            passed.append(k)
            continue
        if p <= 0.0:
            kl = -math.log1p(-q)
        elif p >= 1.0:
            kl = -log(q)
        else:
            kl = p * log(p / q) + (1.0 - p) * log((1.0 - p) / (1.0 - q))
        if pulls[k] * kl <= budget:
            passed.append(k)
    return passed


def confidence_radius(x: int, delta: float) -> float:
    """Anytime confidence radius of an empirical mean after x samples.

    sqrt((1 + 1/x) * ln(2 * sqrt(x + 1) / delta) / (2x)); valid uniformly
    over x for 1/2-sub-Gaussian samples with failure probability delta.
    """
    if x < 1:
        raise ValueError("sample count must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt(
        (1.0 + 1.0 / x) * math.log(2.0 * math.sqrt(x + 1.0) / delta) / (2.0 * x)
    )


def capacity_interval(
    mu_hat: float, nu_hat: float, radius_sum: float
) -> tuple[int, int | None]:
    """Integer bracket on a capacity from per-load and full-load mean estimates.

    nu_hat estimates capacity * mu; dividing by mu bracketed within
    radius_sum gives [ceil(nu/(mu+r)), floor(nu/(mu-r))]. The upper end is
    None while mu_hat - radius_sum <= 0 (no finite bound can be certified).
    """
    lower = math.ceil(nu_hat / (mu_hat + radius_sum) - _INT_EPS)
    denom = mu_hat - radius_sum
    if denom <= 0.0:
        return max(lower, 1), None
    upper = math.floor(nu_hat / denom + _INT_EPS)
    return max(lower, 1), upper


def closed_bracket_holds(
    mu_hat: float, nu_hat: float, radius: float, capacity: int
) -> bool:
    """Whether an update with any radius_sum >= ``radius`` keeps [capacity, capacity].

    capacity_interval only widens as its radius grows, float steps included:
    mu_hat + r and mu_hat - r move monotonically with r, and so do the
    divisions of nu_hat >= 0 by them, the epsilon shifts, ceil and floor. So
    when the interval at ``radius`` holds ``capacity``, ``CapacityBounds.update``
    at a wider radius leaves the closed bracket as it is and warns of no crossing.

    At fixed nu_hat, radius and capacity the answer is True on an interval of
    mu_hat: the lower end's test can only turn true as mu_hat grows, and the
    upper end's test only false.
    """
    lower, upper = capacity_interval(mu_hat, nu_hat, radius)
    return lower <= capacity and (upper is None or upper >= capacity)


def means_separated(
    mu_k: float, pulls_k: int, mu_j: float, pulls_j: int, horizon: int
) -> bool:
    """True when arm k's mean confidently exceeds arm j's.

    Compares KL confidence bounds at the horizon's KL-UCB budget: arm k's
    lower bound 1 - klucb_index(1 - mu_k, pulls_k, T) must exceed arm j's
    upper index klucb_index(mu_j, pulls_j, T). At a fixed pull count each
    bound fails with probability at most 1 / (T ln(T)^4), by the Chernoff
    bound behind KL-UCB (Garivier & Cappe, COLT 2011). Arms 0.025 apart
    near 0.8 separate after about 5e4 pulls each at T = 1e5.

    An extension: SIC-MMAB separates with the Hoeffding radius
    3 * sqrt(ln(T) / (2 * pulls)), which needs about 3.3e5 pulls there.
    """
    lower_k = 1.0 - klucb_index(1.0 - mu_k, pulls_k, horizon)
    return not klucb_at_least(mu_j, pulls_j, klucb_budget(horizon), lower_k)


def separated_pairs(
    mu_hat: dict[int, float], pulls: dict[int, int], arms: list[int], horizon: int
) -> dict[tuple[int, int], bool]:
    """``means_separated`` for every ordered pair (k, j) of distinct ``arms``.

    The same answers as pairwise calls, with each arm's lower bound bisected
    once instead of once per pair.
    """
    budget = klucb_budget(horizon)
    lower = {k: 1.0 - klucb_index(1.0 - mu_hat[k], pulls[k], horizon) for k in arms}
    return {
        (k, j): not klucb_at_least(mu_hat[j], pulls[j], budget, lower[k])
        for k in arms
        for j in arms
        if k != j
    }


@dataclass
class PlayerStats:
    """Per-arm reward sums and pull counts from the two exploration modes.

    Individual samples are per-load rewards (arm total divided by the
    sharing count, each in [0, 1]); united samples are raw arm totals
    collected while every player rallies on the arm.
    """

    num_arms: int
    ie_sum: list[float] = field(init=False)
    ie_count: list[int] = field(init=False)
    ue_sum: list[float] = field(init=False)
    ue_count: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.ie_sum = [0.0] * self.num_arms
        self.ie_count = [0] * self.num_arms
        self.ue_sum = [0.0] * self.num_arms
        self.ue_count = [0] * self.num_arms

    def add_individual(self, arm: int, per_load_reward: float) -> None:
        self.ie_sum[arm] += per_load_reward
        self.ie_count[arm] += 1

    def add_united(self, arm: int, total_reward: float, pulls: int = 1) -> None:
        """Add ``pulls`` rallies on ``arm`` that paid ``total_reward`` together."""
        self.ue_sum[arm] += total_reward
        self.ue_count[arm] += pulls

    def mu_hat(self, arm: int) -> float:
        if self.ie_count[arm] == 0:
            raise ValueError(f"arm {arm} has no individual samples")
        return self.ie_sum[arm] / self.ie_count[arm]

    def nu_hat(self, arm: int) -> float:
        if self.ue_count[arm] == 0:
            raise ValueError(f"arm {arm} has no united samples")
        return self.ue_sum[arm] / self.ue_count[arm]


class CapacityBounds:
    """Monotone per-arm integer bracket [lower, upper] on shareable capacity.

    Lower bounds only ever grow and upper bounds only ever shrink, both
    clamped to [1, max_units]; an arm is "learned" once the bracket closes.
    """

    __slots__ = ("lower", "upper", "max_units")

    def __init__(self, num_arms: int, max_units: int) -> None:
        self.lower = [1] * num_arms
        self.upper = [max_units] * num_arms
        self.max_units = max_units

    def learned(self, arm: int) -> bool:
        return self.lower[arm] == self.upper[arm]

    def update(
        self,
        arm: int,
        mu_hat: float,
        nu_hat: float,
        radius_sum: float,
        *,
        allow_upper: bool = True,
    ) -> None:
        """Tighten one arm's bracket from fresh mean estimates.

        The upper move is skipped while the per-load mean is not separated
        from zero by radius_sum, or when the caller cannot certify the
        united samples saturated the arm (allow_upper=False).
        """
        raw_lo, raw_hi = capacity_interval(mu_hat, nu_hat, radius_sum)
        lo = min(max(raw_lo, self.lower[arm]), self.max_units)
        hi = self.upper[arm]
        if allow_upper and raw_hi is not None:
            hi = max(min(raw_hi, hi), 1)
        if lo > hi:
            # The confidence event failed; keep a usable total order.
            _log.warning(
                "capacity bounds crossed on arm %d (lower %d > upper %d); "
                "pinning both to the lower bound",
                arm,
                lo,
                hi,
            )
            hi = lo
        self.lower[arm] = lo
        self.upper[arm] = hi


def update_capacity_bounds(
    stats: PlayerStats,
    arm: int,
    bounds: CapacityBounds,
    delta: float,
    *,
    allow_upper: bool = True,
) -> None:
    """Apply one capacity-bracket update for ``arm`` from ``stats``.

    Requires at least one individual and one united sample on the arm.
    """
    radius_sum = confidence_radius(stats.ie_count[arm], delta) + confidence_radius(
        stats.ue_count[arm], delta
    )
    bounds.update(
        arm,
        stats.mu_hat(arm),
        stats.nu_hat(arm),
        radius_sum,
        allow_upper=allow_upper,
    )
