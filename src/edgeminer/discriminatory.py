"""Discriminatory-fee game: every recruited miner gets its own expected fee.

Both stages are in closed form: Stage II is the active-set Nash point of a
Tullock contest with linear costs, Stage I the symmetric fixed point of the
per-miner profit terms.  The searches stay on as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GameParams,
    PowerProfile,
    as_profile,
    check_objective,
    device_discount,
    leader_reward_scale,
    stage1_setup,
)

__all__ = [
    "DiscriminatoryGame",
    "leader_delta_utility_discriminatory",
    "miner_utilities",
    "nash_equilibrium_closed_form",
    "optimal_fees_discriminatory",
    "share_identity",
    "uniqueness_certificate_discriminatory",
]

@dataclass(frozen=True)
class DiscriminatoryGame:
    """Per-miner fee vector (length >= 2), shared unit cost, shared params.

    cost_coefficients: c_i = unit_cost / (fee_i * device-load discount), finite and > 0.
    """

    fees: np.ndarray
    unit_cost: float
    params: GameParams = field(default_factory=GameParams)
    cost_coefficients: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fees = np.atleast_1d(np.asarray(self.fees, dtype=float))
        if fees.ndim != 1 or fees.size < 2:
            raise ValueError("need at least two miners (fee vector of length >= 2)")
        if not np.all(np.isfinite(fees)) or np.any(fees <= 0):
            raise ValueError("all fees must be finite and > 0")
        if not (math.isfinite(self.unit_cost) and self.unit_cost > 0):
            raise ValueError(f"unit_cost must be finite and > 0, got {self.unit_cost!r}")
        with np.errstate(divide="ignore", over="ignore"):
            c = self.unit_cost / (fees * device_discount(self.params))
        bad = ~(np.isfinite(c) & (c > 0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"fees and unit_cost: miner {i}'s fee {float(fees[i])!r} makes "
                             "the cost coefficient unit_cost / (fee * discount) overflow or "
                             "round to 0")
        object.__setattr__(self, "fees", fees)
        object.__setattr__(self, "cost_coefficients", c)

    @property
    def n_miners(self) -> int:
        return self.fees.size


def miner_utilities(game: DiscriminatoryGame, profile) -> np.ndarray:
    """Every miner's utility, elementwise: fee_i * share_i * discount - unit_cost * x_i."""
    prof = as_profile(profile)
    if len(prof) != game.n_miners:
        raise ValueError(f"profile has {len(prof)} entries, game has {game.n_miners} miners")
    discount = game.params.delay_discount(game.params.mobile_tx_load)
    return game.fees * prof.shares() * discount - game.unit_cost * prof.powers


def nash_equilibrium_closed_form(game: DiscriminatoryGame) -> PowerProfile:
    """The Nash allocation of a Tullock contest with linear costs (Hillman & Riley 1989).

    With the cost coefficients c sorted, the active set is the k cheapest
    miners, k >= 2 the largest count with (k-1) * c_(k) < sum_{j<=k} c_j.
    Active miners supply T - c_i * T^2 with T = (k-1) / sum_active c, the
    rest 0; with every miner active these are the interior formula's steps.
    Where c_(1) + c_(2) rounds to c_(2), no k >= 2 fits, and this raises ValueError.
    """
    c = game.cost_coefficients
    ordered = np.sort(c)
    fits = np.arange(c.size) * ordered < np.cumsum(ordered)  # (k-1) c_(k) < S_k
    if not fits[1]:  # the cheapest miners have the highest fees
        first, second = np.sort(game.fees)[:-3:-1].tolist()
        raise ValueError(f"fees {first!r} and {second!r} of the two cheapest miners: their cost "
                         f"ratio {ordered[0] / ordered[1]:.3g} is below float resolution, so "
                         "only one miner would be active")
    active = c <= ordered[np.flatnonzero(fits)[-1]]
    total = int(np.count_nonzero(active) - 1) / math.fsum(c[active].tolist())
    if not math.isfinite(total):
        raise ValueError("fees and unit_cost: the equilibrium total power (k-1) / sum(c) "
                         f"overflows at unit_cost {game.unit_cost!r}")
    # a borderline active miner can round to -1e-16; it supplies 0
    return PowerProfile(np.where(active, np.maximum(total - c * total * total, 0.0), 0.0))


def share_identity(game: DiscriminatoryGame, allocation: PowerProfile) -> np.ndarray:
    """Shares by 1 - (k-1)/(p_i * sum_active 1/p_j), k active miners; 0 if inactive."""
    active = allocation.powers > 0
    inv_sum = math.fsum((1.0 / game.fees)[active])
    share = 1.0 - (np.count_nonzero(active) - 1) / (game.fees * inv_sum)
    return np.where(active, share, 0.0)


def uniqueness_certificate_discriminatory(game: DiscriminatoryGame) -> np.ndarray:
    """Literal per-miner uniqueness condition 2(M-1)/p_i < sum_j 1/p_j, one bool each.

    Reported as stated but never used to gate computation: the condition
    cannot hold for every miner at once (summing it over i gives M < 2), so
    the operative uniqueness evidence is the best-response fixed-point test.
    """
    return 2.0 * (game.n_miners - 1) / game.fees < math.fsum(1.0 / game.fees)


def leader_delta_utility_discriminatory(game: DiscriminatoryGame, allocation: PowerProfile,
                                        objective: str = "full") -> np.ndarray:
    """Leader's additional profit from recruiting each miner, elementwise.

    "simplified" is a * the share identity (0 for a miner that stays out).
    "full" is a * share - fee: the leader pays miner i its fee p_i.
    """
    check_objective(objective)
    a = leader_reward_scale(game.params)
    if objective == "simplified":
        return a * share_identity(game, allocation)
    return a * allocation.shares() - game.fees


def optimal_fees_discriminatory(n_miners: int, unit_cost: float, params: GameParams):
    """Stage I: the symmetric fixed point of the per-miner full profit terms.

    Miner i's term a * (1 - (M-1)/(p_i * sum_j 1/p_j)) - p_i is concave in
    p_i.  With the other fees at p it peaks at p_i = p exactly when
    p = a(M-1)^2/M^2, a point that stays fixed when clipped to
    the bracket of stage1_setup(params).  Returns (fee vector, summed profit).
    """
    if n_miners < 2:
        raise ValueError("need at least two miners")
    if not (math.isfinite(unit_cost) and unit_cost > 0):
        raise ValueError(f"unit_cost must be finite and > 0, got {unit_cost!r}")
    _, a, lo, hi = stage1_setup(params)
    # (M-1)/M first: a * (M-1)**2 overflows when a is near the float maximum
    symmetric = min(max(a * ((n_miners - 1) / n_miners) ** 2, lo), hi)
    fees = np.full(n_miners, symmetric)
    share = 1.0 - (n_miners - 1) / (fees * np.sum(1.0 / fees))
    return fees, math.fsum(a * share - fees)
