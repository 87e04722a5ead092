"""Uniform-fee game: one expected fee for the aggregate device pool.

Stage II treats all recruited devices as a single follower supplying total
power Y against the edge server's own power X.  Stage I picks the fee.  Both
stages are closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GameParams, check_objective, stage1_setup

__all__ = [
    "aggregate_miner_utility",
    "leader_delta_utility_uniform",
    "optimal_fee_uniform",
    "optimal_fees_uniform",
    "pool_responses",
    "reject_nonfinite_profits",
    "uniqueness_certificate_uniform",
]


def aggregate_miner_utility(kappa, edge_powers, unit_cost, pool_power):
    """Pool utility at device power Y, elementwise: kappa*Y/(X+Y) - unit_cost*Y.

    kappa is the fee discounted by the device load.
    """
    if np.any(np.asarray(pool_power) < 0):
        raise ValueError("device power must be >= 0")
    return kappa * pool_power / (edge_powers + pool_power) - unit_cost * pool_power


def pool_responses(kappa, edge_powers, unit_cost):
    """The pool's best responses, elementwise: sqrt(kappa*X/unit_cost) - X, clamped at 0.

    By concavity the stationary point is the unique maximizer; below 0 the pool stays out.
    """
    return np.maximum(0.0, np.sqrt(kappa * edge_powers / unit_cost) - edge_powers)


def uniqueness_certificate_uniform(kappa, edge_powers, unit_cost):
    """(below_quarter_bound, below_positivity_bound), elementwise.

    Edge power below kappa/(4*unit_cost) certifies uniqueness: the binding
    threshold of the monotonicity argument.  kappa/unit_cost is the looser
    positivity threshold, reported alongside.
    """
    return edge_powers < kappa / (4.0 * unit_cost), edge_powers < kappa / unit_cost


def leader_delta_utility_uniform(fees, edge_powers, unit_cost, discount, a, objective: str):
    """Leader's additional profit from recruiting, at the pool's response, elementwise.

    kappa = fee * discount.  "full" charges the fee: a*Y*/(X+Y*) - fee, with
    Y* the best response (so a non-participating pool still costs the
    announced fee).  "simplified" drops the fee term: a*(1 - sqrt(X*unit_cost/kappa)).
    """
    check_objective(objective)
    kappa = fees * discount
    if objective == "simplified":
        return a * (1.0 - np.sqrt(edge_powers * unit_cost / kappa))
    y_star = pool_responses(kappa, edge_powers, unit_cost)
    return a * y_star / (edge_powers + y_star) - fees


def optimal_fee_uniform(edge_power: float, unit_cost: float, params: GameParams):
    """Stage I for one instance: optimal_fees_uniform on [edge_power], as floats."""
    fees, profits = optimal_fees_uniform([edge_power], unit_cost, params)
    return float(fees[0]), float(profits[0])


def reject_nonfinite_profits(edge, fees, profits, quantity: str = "stage-I profit") -> None:
    """Raise ValueError naming the first instance whose profit (or quantity) is not finite."""
    bad = ~np.isfinite(profits)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{quantity} is not finite at instance {k} (edge power "
                         f"{float(edge[k])!r}, fee {float(fees[k])!r}): {float(profits[k])!r}")


def optimal_fees_uniform(edge_powers, unit_cost: float, params: GameParams,
                         fixed_reward=None):
    """Stage I in closed form: the fee maximizing the leader's full profit, per instance.

    The bracket [lo, hi] is stage1_setup's.  The leader pays the fee, so
    while fee * d <= X * unit_cost (d the device-load discount) the pool
    stays out and the profit is -fee; above that it is
    a*(1 - sqrt(X*unit_cost/(fee*d))) - fee, concave with its peak at
    p* = (a/2 * sqrt(X*unit_cost/d))^(2/3).  So the optimum is p* clipped to
    the bracket, unless the floor earns strictly more.

    ``edge_powers`` and ``fixed_reward``, a 1-D array standing in for
    params.fixed_reward if given, broadcast: one instance per element.  The
    profit is ``leader_delta_utility_uniform`` under "full"; one that is not finite
    raises ValueError (reject_nonfinite_profits).  Returns (fees, profits).
    """
    edge = np.asarray(edge_powers, dtype=float)
    if edge.ndim != 1:
        raise ValueError(f"edge_powers must be 1-D, got shape {edge.shape}")
    bad = ~(np.isfinite(edge) & (edge > 0))
    if bad.any():
        raise ValueError(f"edge_power must be finite and > 0, got {float(edge[bad][0])!r}")
    if not (math.isfinite(unit_cost) and unit_cost > 0):
        raise ValueError(f"unit_cost must be finite and > 0, got {unit_cost!r}")
    if fixed_reward is not None:
        edge, fixed_reward = np.broadcast_arrays(edge, np.asarray(fixed_reward, dtype=float))
    discount, a, lo, hi = stage1_setup(params, fixed_reward)

    def profits(fees):
        return leader_delta_utility_uniform(fees, edge, unit_cost, discount, a, "full")

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
