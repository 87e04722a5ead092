"""Uniform-fee game: one expected fee for the aggregate device pool.

Stage II treats all recruited devices as a single follower supplying total
power Y against the edge server's own power X.  Stage I picks the fee.  Both
stages are closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import GameParams, check_objective, fee_bracket, leader_reward_scale

__all__ = [
    "UniformCertificate",
    "UniformGame",
    "aggregate_miner_utility",
    "best_response_uniform",
    "leader_delta_utility_uniform",
    "leader_profits_uniform",
    "optimal_fee_uniform",
    "optimal_fees_uniform",
    "reject_nonfinite_profits",
    "stage1_setup",
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


def _pool_response(kappa, edge_powers, unit_cost):
    """The pool's best response, elementwise: sqrt(kappa*X/unit_cost) - X, clamped at 0."""
    return np.maximum(0.0, np.sqrt(kappa * edge_powers / unit_cost) - edge_powers)


def best_response_uniform(game: UniformGame) -> float:
    """Device-pool power maximizing the aggregate utility, clamped at 0.

    The interior stationary point sqrt(kappa*X/unit_cost) - X is the unique
    maximizer by concavity; a negative value means staying out is optimal.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, as with Python floats
        return float(_pool_response(game.kappa, game.edge_power, game.unit_cost))


@dataclass(frozen=True)
class UniformCertificate:
    """Uniqueness certificate for the aggregate response map.

    ``below_quarter_bound`` certifies: kappa / 4*unit_cost is the binding
    threshold of the monotonicity argument; ``positivity_bound`` (kappa /
    unit_cost) is the looser positivity threshold, reported alongside.
    """

    quarter_bound: float
    positivity_bound: float
    below_quarter_bound: bool
    below_positivity_bound: bool


def uniqueness_certificate_uniform(game: UniformGame) -> UniformCertificate:
    """Certify uniqueness: edge power below kappa/(4*unit_cost)."""
    quarter = game.kappa / (4.0 * game.unit_cost)
    positivity = game.kappa / game.unit_cost
    return UniformCertificate(
        quarter_bound=quarter,
        positivity_bound=positivity,
        below_quarter_bound=game.edge_power < quarter,
        below_positivity_bound=game.edge_power < positivity,
    )


def leader_delta_utility_uniform(game: UniformGame, objective: str = "full") -> float:
    """Leader's additional profit from recruiting, at the followers' response.

    "full" charges the fee: a*Y*/(X+Y*) - fee, with Y* the best response
    (so a non-participating pool still costs the announced fee).
    "simplified" drops the fee term: a*(1 - sqrt(X*unit_cost/kappa)).
    The one-game float view of leader_profits_uniform.
    """
    check_objective(objective)
    d = game.params.delay_discount(game.params.mobile_tx_load)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return float(leader_profits_uniform(game.fee, game.edge_power, game.unit_cost, d,
                                            leader_reward_scale(game.params), objective))


def leader_profits_uniform(fees, edge_powers, unit_cost, discount, a, objective: str):
    """leader_delta_utility_uniform, one game per element: the only implementation of it."""
    kappa = fees * discount
    if objective == "simplified":
        return a * (1.0 - np.sqrt(edge_powers * unit_cost / kappa))
    y_star = _pool_response(kappa, edge_powers, unit_cost)
    return a * y_star / (edge_powers + y_star) - fees


def optimal_fee_uniform(edge_power: float, unit_cost: float, params: GameParams):
    """Stage I for one instance: optimal_fees_uniform on [edge_power], as floats."""
    fees, profits = optimal_fees_uniform([edge_power], unit_cost, params)
    return float(fees[0]), float(profits[0])


def stage1_setup(params: GameParams):
    """(d, a, lo, hi): device discount, reward scale and fee_bracket of one instance."""
    lo, hi = fee_bracket(params)
    return params.delay_discount(params.mobile_tx_load), leader_reward_scale(params), lo, hi


def reject_nonfinite_profits(edge, fees, profits, quantity: str = "stage-I profit") -> None:
    """Raise ValueError naming the first instance whose profit (or quantity) is not finite."""
    bad = ~np.isfinite(profits)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{quantity} is not finite at instance {k} (edge power "
                         f"{float(edge[k])!r}, fee {float(fees[k])!r}): {float(profits[k])!r}")


def optimal_fees_uniform(edge_powers, unit_cost: float, params):
    """Stage I in closed form: the fee maximizing the leader's full profit, per instance.

    The bracket is fee_bracket(params): [participation_floor, 100*a].
    The leader pays the fee, so while fee * d <= X * unit_cost (d the
    device-load discount) the pool stays out and the profit is -fee; above
    that it is a*(1 - sqrt(X*unit_cost/(fee*d))) - fee, concave with its
    peak at p* = (a/2 * sqrt(X*unit_cost/d))^(2/3).  So the optimum is p*
    clipped to the bracket, unless the floor earns strictly more.

    ``edge_powers`` is a 1-D array, ``params`` one GameParams shared by every
    instance or a sequence with one per instance.
    The profit is ``leader_profits_uniform`` under "full", and a profit that
    is not finite raises ValueError (reject_nonfinite_profits).  Returns
    (fees, profits) arrays.
    """
    edge = np.asarray(edge_powers, dtype=float)
    if edge.ndim != 1:
        raise ValueError(f"edge_powers must be 1-D, got shape {edge.shape}")
    bad = ~(np.isfinite(edge) & (edge > 0))
    if bad.any():
        raise ValueError(f"edge_power must be finite and > 0, got {float(edge[bad][0])!r}")
    if not (math.isfinite(unit_cost) and unit_cost > 0):
        raise ValueError(f"unit_cost must be finite and > 0, got {unit_cost!r}")
    if isinstance(params, GameParams):
        discount, a, lo, hi = stage1_setup(params)
        lo, hi = np.full(edge.size, lo), np.full(edge.size, hi)
    else:
        if len(params) != edge.size:
            raise ValueError(f"{len(params)} GameParams for {edge.size} edge powers")
        discount, a, lo, hi = np.array([stage1_setup(p) for p in params],
                                       dtype=float).reshape(-1, 4).T

    def profits(fees):
        return leader_profits_uniform(fees, edge, unit_cost, discount, a, "full")

    # overflow gives inf or nan, as Python floats do, and the check below rejects it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        peak = (a / 2.0 * np.sqrt(edge * unit_cost / discount)) ** (2.0 / 3.0)
        # a == 0 makes peak 0 or 0*inf = nan, and every fee earns -fee:
        # fmax takes the floor over nan
        peak = np.fmin(np.fmax(peak, lo), hi)
        at_peak, at_floor = profits(peak), profits(lo)
        # where fee * d <= X * u the pool stays out and the peak earns
        # -peak <= -lo; saying so also covers a profit that overflows there
        floor_wins = (peak * discount <= edge * unit_cost) | (at_floor > at_peak)
        fees = np.where(floor_wins, lo, peak)
        profit = np.where(floor_wins, at_floor, at_peak)
    reject_nonfinite_profits(edge, fees, profit)
    return fees, profit
