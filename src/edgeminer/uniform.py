"""Uniform-fee game: one expected fee for the aggregate device pool.

Stage II treats all recruited devices as a single follower supplying total
power Y against the edge server's own power X.  Stage I picks the fee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import GameParams, check_objective, fee_bracket, leader_reward_scale
from .search import golden_section_max, golden_section_max_array

__all__ = [
    "UniformCertificate",
    "UniformGame",
    "aggregate_miner_utility",
    "best_response_uniform",
    "check_kappa",
    "leader_delta_utility_uniform",
    "optimal_fee_uniform",
    "optimal_fees_uniform",
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
    check_kappa(objective, lo, params.delay_discount(params.mobile_tx_load))

    def profit_at(fee: float) -> float:
        game = UniformGame(edge_power, fee, unit_cost, params)
        return leader_delta_utility_uniform(game, objective)

    return golden_section_max(profit_at, lo, hi, rel_tol)


def optimal_fees_uniform(edge_powers, unit_cost: float, params, objective: str = "full",
                         bracket=None):
    """Stage I for many instances at once: optimal_fee_uniform elementwise.

    ``edge_powers`` is a 1-D array, ``params`` one GameParams shared by every
    instance or a sequence with one per instance.  Each instance keeps its
    own bracket, and the golden section runs on all of them in lockstep
    (``golden_section_max_array``) on the elementwise form of
    ``leader_delta_utility_uniform``, so element k equals
    ``optimal_fee_uniform(edge_powers[k], unit_cost, params[k], ...)`` bit
    for bit.  The edge powers, the unit cost and the discounted fees are
    checked once, before the search.  Returns (fees, profits) arrays.
    """
    check_objective(objective)
    edge = np.asarray(edge_powers, dtype=float)
    if edge.ndim != 1:
        raise ValueError(f"edge_powers must be 1-D, got shape {edge.shape}")
    bad = ~(np.isfinite(edge) & (edge > 0))
    if bad.any():
        raise ValueError(f"edge_power must be finite and > 0, got {float(edge[bad][0])!r}")
    if not (math.isfinite(unit_cost) and unit_cost > 0):
        raise ValueError(f"unit_cost must be finite and > 0, got {unit_cost!r}")
    if isinstance(params, GameParams):
        discount = params.delay_discount(params.mobile_tx_load)
        a = leader_reward_scale(params)
        lo, hi = (np.full(edge.size, end) for end in fee_bracket(params, bracket))
    else:
        if len(params) != edge.size:
            raise ValueError(f"{len(params)} GameParams for {edge.size} edge powers")
        discount = np.array([p.delay_discount(p.mobile_tx_load) for p in params])
        a = np.array([leader_reward_scale(p) for p in params])
        lo, hi = np.array([fee_bracket(p, bracket) for p in params],
                          dtype=float).reshape(-1, 2).T
    check_kappa(objective, lo, discount)

    def profits(fees):
        # leader_delta_utility_uniform, one game per element; the final
        # midpoint 0.5*(a+b) can overflow, which UniformGame rejects
        if not np.all(np.isfinite(fees)):
            raise ValueError(f"fee must be finite and > 0, "
                             f"got {float(fees[~np.isfinite(fees)][0])!r}")
        kappa = fees * discount
        if objective == "simplified":
            return a * (1.0 - np.sqrt(edge * unit_cost / kappa))
        y_star = np.maximum(0.0, np.sqrt(kappa * edge / unit_cost) - edge)
        return a * y_star / (edge + y_star) - fees

    # Python floats overflow to inf and turn inf/inf into nan silently; so
    # does the array search, to match the scalar path's output and stderr
    with np.errstate(over="ignore", invalid="ignore"):
        return golden_section_max_array(profits, lo, hi)


def check_kappa(objective: str, lo, discount) -> None:
    """Reject a bracket whose lowest fee discounts to kappa == 0.

    The simplified objective divides by kappa = fee * discount, and kappa
    only grows with the fee, so checking the bracket floor covers every fee
    the search can probe.  A delay discount that underflows to 0 (a large
    poisson_rate) lands here.
    """
    if objective == "simplified" and np.any(np.multiply(lo, discount) == 0):
        raise ValueError("the simplified objective needs fee * delay discount > 0, "
                         "but the device-load delay discount is "
                         f"{float(np.min(discount)):g}")
