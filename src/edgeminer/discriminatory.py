"""Discriminatory-fee game: every recruited miner gets its own expected fee.

Stage II has a closed-form interior Nash point; Stage I runs a per-fee
coordinate ascent justified by the per-coordinate concavity of the leader's
profit term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConvergenceError,
    DegenerateProfileError,
    GameParams,
    InfeasibleEquilibriumError,
    PowerProfile,
    as_profile,
    check_objective,
    fee_bracket,
    leader_reward_scale,
)
from .search import golden_section_max

__all__ = [
    "DiscriminatoryCertificate",
    "DiscriminatoryGame",
    "best_response_i",
    "leader_delta_utility_discriminatory",
    "miner_utility_i",
    "nash_equilibrium_closed_form",
    "optimal_fees_discriminatory",
    "uniqueness_certificate_discriminatory",
]

FEE_BASES = ("lump", "per_power")


@dataclass(frozen=True)
class DiscriminatoryGame:
    """Per-miner fee vector (length >= 2), shared unit cost, shared params."""

    fees: np.ndarray
    unit_cost: float
    params: GameParams = field(default_factory=GameParams)

    def __post_init__(self):
        fees = np.atleast_1d(np.asarray(self.fees, dtype=float))
        if fees.ndim != 1 or fees.size < 2:
            raise ValueError("need at least two miners (fee vector of length >= 2)")
        if not np.all(np.isfinite(fees)) or np.any(fees <= 0):
            raise ValueError("all fees must be finite and > 0")
        if not (math.isfinite(self.unit_cost) and self.unit_cost > 0):
            raise ValueError(f"unit_cost must be finite and > 0, got {self.unit_cost!r}")
        object.__setattr__(self, "fees", fees)

    @property
    def n_miners(self) -> int:
        return self.fees.size

    @property
    def cost_coefficients(self) -> np.ndarray:
        """c_i = unit_cost / (fee_i * device-load discount); all finite > 0."""
        return self.unit_cost / (self.fees * self.params.delay_discount(self.params.mobile_tx_load))


def miner_utility_i(game: DiscriminatoryGame, profile, i: int) -> float:
    """Utility of miner i: fee_i * share_i * discount - unit_cost * x_i."""
    prof = as_profile(profile)
    if len(prof) != game.n_miners:
        raise ValueError(f"profile has {len(prof)} entries, game has {game.n_miners} miners")
    share = prof.shares()[i]
    discount = game.params.delay_discount(game.params.mobile_tx_load)
    return float(game.fees[i] * share * discount - game.unit_cost * prof.powers[i])


def best_response_i(game: DiscriminatoryGame, others_sum: float, i: int) -> float:
    """Miner i's utility-maximizing power given the others' total, clamped at 0."""
    if not 0 <= i < game.n_miners:
        raise IndexError(f"miner index {i} out of range")
    if others_sum <= 0:
        raise DegenerateProfileError(
            "best response undefined when all other miners supply zero power")
    c_i = float(game.cost_coefficients[i])
    return max(0.0, math.sqrt(others_sum / c_i) - others_sum)


def nash_equilibrium_closed_form(game: DiscriminatoryGame) -> PowerProfile:
    """Interior Nash allocation x_i = total - c_i * total^2.

    With S the sum of the cost coefficients, the equilibrium total is
    (M-1)/S and each allocation follows from it.  A negative entry means the
    fee vector is too dispersed for an interior equilibrium; that raises
    InfeasibleEquilibriumError (carrying the offending miners) instead of
    silently clamping, because the derivation assumes interiority.
    """
    c = game.cost_coefficients
    total = (game.n_miners - 1) / math.fsum(c)
    x = total - c * total * total
    negative = np.flatnonzero(x < 0)
    if negative.size:
        raise InfeasibleEquilibriumError(
            f"closed-form allocation negative for miners {negative.tolist()}; "
            "fee vector too dispersed for an interior equilibrium",
            indices=negative)
    return PowerProfile(x)


@dataclass(frozen=True)
class DiscriminatoryCertificate:
    """Literal per-miner uniqueness condition 2(M-1)/p_i < sum_j 1/p_j.

    Reported as stated but never used to gate computation: the condition
    cannot hold for every miner at once (summing it over i gives M < 2), so
    the operative uniqueness evidence is the best-response fixed-point test.
    """

    per_miner: np.ndarray
    all_pass: bool


def uniqueness_certificate_discriminatory(game: DiscriminatoryGame) -> DiscriminatoryCertificate:
    inv_sum = math.fsum(1.0 / game.fees)
    per_miner = 2.0 * (game.n_miners - 1) / game.fees < inv_sum
    return DiscriminatoryCertificate(per_miner=per_miner, all_pass=bool(np.all(per_miner)))


def equilibrium_share(game: DiscriminatoryGame, i: int) -> float:
    """Miner i's equilibrium power share, 1 - (M-1)/(p_i * sum_j 1/p_j).

    Closed form of x_i*/sum(x*); matches the allocation route to 1e-9 on
    feasible instances.
    """
    inv_sum = math.fsum(1.0 / game.fees)
    return 1.0 - (game.n_miners - 1) / (float(game.fees[i]) * inv_sum)


def leader_delta_utility_discriminatory(game: DiscriminatoryGame, i: int,
                                        objective: str = "full",
                                        fee_basis: str = "lump") -> float:
    """Leader's additional profit from recruiting miner i.

    "simplified" is a * equilibrium share of miner i.  "full" subtracts the
    fee: lump basis charges p_i outright, per_power charges p_i * x_i*.
    """
    check_objective(objective)
    if fee_basis not in FEE_BASES:
        raise ValueError(f"fee_basis must be one of {FEE_BASES}, got {fee_basis!r}")
    if not 0 <= i < game.n_miners:
        raise IndexError(f"miner index {i} out of range")
    a = leader_reward_scale(game.params)
    if objective == "simplified":
        return a * equilibrium_share(game, i)
    allocation = nash_equilibrium_closed_form(game)
    share = float(allocation.shares()[i])
    fee_cost = float(game.fees[i])
    if fee_basis == "per_power":
        fee_cost *= float(allocation.powers[i])
    return a * share - fee_cost


def _per_miner_profit(fees: np.ndarray, i: int, a: float, objective: str) -> float:
    # identity-based share keeps this evaluable even off the interior region
    inv_sum = float(np.sum(1.0 / fees))
    share = 1.0 - (fees.size - 1) / (fees[i] * inv_sum)
    if objective == "simplified":
        return a * share
    return a * share - fees[i]


def optimal_fees_discriminatory(n_miners: int, unit_cost: float, params: GameParams,
                                objective: str = "full", bracket=None,
                                rel_step: float = 1e-4, max_iters: int = 10_000):
    """Stage I: coordinate ascent on the per-miner profit terms.

    Each sweep maximizes miner i's profit term in its own fee by bracketed
    golden-section search with the other fees held fixed (the term is
    concave in p_i).  Convergence: one full sweep moves no coordinate by
    more than ``rel_step`` relatively, after which no single-coordinate
    probe of +-rel_step improves its own term.  Under the simplified
    objective every term is increasing in its fee, so the ascent runs each
    coordinate to the bracket top.  Fees below min_consumption are excluded
    by the bracket floor.  Returns (fee vector, summed profit).
    """
    check_objective(objective)
    if n_miners < 2:
        raise ValueError("need at least two miners")
    if unit_cost <= 0:
        raise ValueError("unit_cost must be > 0")
    a = leader_reward_scale(params)
    lo, hi = fee_bracket(params, bracket)

    fees = np.full(n_miners, 0.5 * (lo + hi))
    updates = 0
    while updates < max_iters:
        max_move = 0.0
        for i in range(n_miners):
            def term(p_i, i=i):
                trial = fees.copy()
                trial[i] = p_i
                return _per_miner_profit(trial, i, a, objective)

            new_fee, _ = golden_section_max(term, lo, hi, rel_tol=1e-10)
            max_move = max(max_move, abs(new_fee - fees[i]) / max(fees[i], 1e-12))
            fees[i] = new_fee
            updates += 1
        if max_move < rel_step and _is_stationary(fees, a, objective, lo, hi, rel_step):
            profit = math.fsum(_per_miner_profit(fees, i, a, objective)
                               for i in range(n_miners))
            return fees, profit

    raise ConvergenceError(
        f"fee coordinate ascent did not settle within {max_iters} coordinate updates",
        last=fees)


def _is_stationary(fees: np.ndarray, a: float, objective: str,
                   lo: float, hi: float, rel_step: float) -> bool:
    for i in range(fees.size):
        base = _per_miner_profit(fees, i, a, objective)
        slack = 1e-9 * (1.0 + abs(base))
        for direction in (1.0 + rel_step, 1.0 / (1.0 + rel_step)):
            candidate = min(max(fees[i] * direction, lo), hi)
            trial = fees.copy()
            trial[i] = candidate
            if _per_miner_profit(trial, i, a, objective) > base + slack:
                return False
    return True
