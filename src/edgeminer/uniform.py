"""Uniform-fee game: one expected fee for the aggregate device pool.

Stage II treats all recruited devices as a single follower supplying total
power Y against the edge server's own power X.  Stage I picks the fee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import GameParams, check_objective, fee_bracket, leader_reward_scale
from .search import golden_section_max

__all__ = [
    "UniformCertificate",
    "UniformGame",
    "aggregate_miner_utility",
    "best_response_uniform",
    "leader_delta_utility_uniform",
    "optimal_fee_uniform",
    "uniqueness_certificate_uniform",
]

@dataclass(frozen=True)
class UniformGame:
    """One uniform-fee instance: edge power, announced fee, device unit cost."""

    edge_power: float
    fee: float
    unit_cost: float
    params: GameParams = field(default_factory=GameParams)

    def __post_init__(self):
        for name in ("edge_power", "fee", "unit_cost"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float, np.floating))
                    and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    @property
    def kappa(self) -> float:
        """Effective reward coefficient: fee discounted by the device load."""
        return self.fee * self.params.delay_discount(self.params.mobile_tx_load)


def aggregate_miner_utility(game: UniformGame, total_power) -> float:
    """Pool utility at device power Y: kappa*Y/(X+Y) - unit_cost*Y."""
    y = np.asarray(total_power, dtype=float)
    if np.any(y < 0):
        raise ValueError("device power must be >= 0")
    out = game.kappa * y / (game.edge_power + y) - game.unit_cost * y
    return float(out) if out.ndim == 0 else out


def best_response_uniform(game: UniformGame) -> float:
    """Device-pool power maximizing the aggregate utility, clamped at 0.

    The interior stationary point sqrt(kappa*X/unit_cost) - X is the unique
    maximizer by concavity; a negative value means staying out is optimal.
    """
    interior = math.sqrt(game.kappa * game.edge_power / game.unit_cost) - game.edge_power
    return max(0.0, interior)


@dataclass(frozen=True)
class UniformCertificate:
    """Uniqueness certificate for the aggregate response map.

    ``quarter_bound`` (kappa / 4*unit_cost) is the binding threshold from the
    monotonicity argument; ``positivity_bound`` (kappa / unit_cost) is the
    looser positivity threshold, reported alongside.
    """

    certified: bool
    quarter_bound: float
    positivity_bound: float
    below_quarter_bound: bool
    below_positivity_bound: bool


def uniqueness_certificate_uniform(game: UniformGame) -> UniformCertificate:
    """Certify uniqueness: edge power below kappa/(4*unit_cost)."""
    quarter = game.kappa / (4.0 * game.unit_cost)
    positivity = game.kappa / game.unit_cost
    below_quarter = game.edge_power < quarter
    return UniformCertificate(
        certified=below_quarter,
        quarter_bound=quarter,
        positivity_bound=positivity,
        below_quarter_bound=below_quarter,
        below_positivity_bound=game.edge_power < positivity,
    )


def leader_delta_utility_uniform(game: UniformGame, objective: str = "full") -> float:
    """Leader's additional profit from recruiting, at the followers' response.

    "full" charges the fee: a*Y*/(X+Y*) - fee, with Y* the best response
    (so a non-participating pool still costs the announced fee).
    "simplified" drops the fee term: a*(1 - sqrt(X*unit_cost/kappa)).
    """
    check_objective(objective)
    a = leader_reward_scale(game.params)
    if objective == "simplified":
        return a * (1.0 - math.sqrt(game.edge_power * game.unit_cost / game.kappa))
    y_star = best_response_uniform(game)
    return a * y_star / (game.edge_power + y_star) - game.fee


def optimal_fee_uniform(edge_power: float, unit_cost: float, params: GameParams,
                        objective: str = "full", bracket=None, rel_tol: float = 1e-9):
    """Stage I: fee maximizing the leader's additional profit on a bracket.

    The default bracket is [max(min_consumption, 1e-6), 100*a]; fees below
    the devices' minimum consumption are cut away because such offers are
    refused.  Returns (best_fee, profit).
    """
    check_objective(objective)
    if edge_power <= 0 or unit_cost <= 0:
        raise ValueError("edge_power and unit_cost must be > 0")
    lo, hi = fee_bracket(params, bracket)

    def profit_at(fee: float) -> float:
        game = UniformGame(edge_power, fee, unit_cost, params)
        return leader_delta_utility_uniform(game, objective)

    return golden_section_max(profit_at, lo, hi, rel_tol)

