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
    DegenerateProfileError,
    GameParams,
    PowerProfile,
    as_profile,
    check_objective,
    device_discount,
    fee_bracket,
    leader_reward_scale,
)

__all__ = [
    "DiscriminatoryGame",
    "best_response_i",
    "best_responses",
    "leader_delta_utility_discriminatory",
    "leader_deltas",
    "miner_utilities",
    "miner_utility_i",
    "nash_equilibrium_closed_form",
    "optimal_fees_discriminatory",
    "share_identity",
    "uniqueness_certificate_discriminatory",
]

FEE_BASES = ("lump", "per_power")


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
        if not np.all(np.isfinite(c) & (c > 0)):
            raise ValueError("cost coefficients u / (fee * discount) overflow or round to 0")
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


def miner_utility_i(game: DiscriminatoryGame, profile, i: int) -> float:
    """Utility of miner i: entry i of miner_utilities."""
    return float(miner_utilities(game, profile)[i])


def best_responses(others, c) -> np.ndarray:
    """Best responses to the others' totals, elementwise: sqrt(others/c) - others, clamped at 0."""
    return np.maximum(np.sqrt(others / c) - others, 0.0)


def best_response_i(game: DiscriminatoryGame, others_sum: float, i: int) -> float:
    """Miner i's utility-maximizing power given the others' total, clamped at 0."""
    if not 0 <= i < game.n_miners:
        raise IndexError(f"miner index {i} out of range")
    if others_sum <= 0:
        raise DegenerateProfileError(
            "best response undefined when all other miners supply zero power")
    return float(best_responses(others_sum, game.cost_coefficients[i]))


def nash_equilibrium_closed_form(game: DiscriminatoryGame) -> PowerProfile:
    """The Nash allocation of a Tullock contest with linear costs (Hillman & Riley 1989).

    With the cost coefficients c sorted, the active set is the k cheapest
    miners, k >= 2 the largest count with (k-1) * c_(k) < sum_{j<=k} c_j.
    Active miners supply T - c_i * T^2 with T = (k-1) / sum_active c, the
    rest 0; with every miner active these are the interior formula's steps.
    """
    c = game.cost_coefficients
    ordered = np.sort(c)
    fits = np.arange(c.size) * ordered < np.cumsum(ordered)  # (k-1) c_(k) < S_k
    active = c <= ordered[np.flatnonzero(fits)[-1]]
    total = int(np.count_nonzero(active) - 1) / math.fsum(c[active].tolist())
    if not math.isfinite(total):
        raise ValueError("the equilibrium total power (k-1) / sum(c) overflows")
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


def leader_deltas(game: DiscriminatoryGame, allocation: PowerProfile,
                  objective: str = "full", fee_basis: str = "lump") -> np.ndarray:
    """Leader's additional profit from recruiting each miner, elementwise.

    "simplified" is a * the share identity (0 for a miner that stays out).
    "full" is a * share - fee: lump basis charges p_i, per_power p_i * x_i.
    """
    check_objective(objective)
    if fee_basis not in FEE_BASES:
        raise ValueError(f"fee_basis must be one of {FEE_BASES}, got {fee_basis!r}")
    a = leader_reward_scale(game.params)
    if objective == "simplified":
        return a * share_identity(game, allocation)
    fee_cost = game.fees * allocation.powers if fee_basis == "per_power" else game.fees
    return a * allocation.shares() - fee_cost


def leader_delta_utility_discriminatory(game: DiscriminatoryGame, i: int,
                                        objective: str = "full",
                                        fee_basis: str = "lump") -> float:
    """Leader's additional profit from recruiting miner i: leader_deltas at the Nash point."""
    if not 0 <= i < game.n_miners:
        raise IndexError(f"miner index {i} out of range")
    allocation = nash_equilibrium_closed_form(game)
    return float(leader_deltas(game, allocation, objective, fee_basis)[i])


def optimal_fees_discriminatory(n_miners: int, unit_cost: float, params: GameParams):
    """Stage I: the symmetric fixed point of the per-miner full profit terms.

    Miner i's term a * (1 - (M-1)/(p_i * sum_j 1/p_j)) - p_i is concave in
    p_i.  With the other fees at p it peaks at p_i = p exactly when
    p = a(M-1)^2/M^2, a point that stays fixed when clipped to
    fee_bracket(params).  Returns (fee vector, summed profit).
    """
    if n_miners < 2:
        raise ValueError("need at least two miners")
    if not (math.isfinite(unit_cost) and unit_cost > 0):
        raise ValueError(f"unit_cost must be finite and > 0, got {unit_cost!r}")
    a = leader_reward_scale(params)
    lo, hi = fee_bracket(params)
    # (M-1)/M first: a * (M-1)**2 overflows when a is near the float maximum
    symmetric = min(max(a * ((n_miners - 1) / n_miners) ** 2, lo), hi)
    fees = np.full(n_miners, symmetric)
    share = 1.0 - (n_miners - 1) / (fees * np.sum(1.0 / fees))
    return fees, math.fsum(a * share - fees)
