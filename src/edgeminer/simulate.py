"""Monte-Carlo block mining and the delayed-baseline profit comparison.

Each simulated block is one categorical draw: miner i wins with probability
share_i * e^(-rate*delay*tx), and the residual 1 - e^(-rate*delay*tx) is an
orphaned round with no winner, so per-miner win probabilities match the
model exactly.  The PRNG is pinned to numpy's PCG64 so seeded runs are
bit-reproducible.

A block's uniform draw u goes to miner i when cum[i-1] <= u < cum[i], with
cum the cumulative win probabilities, so the number of blocks won by miners
0..i is the number of draws below cum[i].  Wins are counted that way
(``_count_below``), never block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import GameParams, as_profile
from .uniform import optimal_fees_uniform

__all__ = [
    "SimConfig",
    "SimOutcome",
    "emg_vs_mdg_sweep",
    "empirical_success_prob",
    "first_miner_wins",
    "mdg_baseline_profit",
    "simulate_mining",
]


@dataclass(frozen=True)
class SimConfig:
    """Simulation setup; defaults are 1000 blocks of 10 transactions."""

    n_blocks: int = 1000
    tx_per_block: int = 10
    seed: int = 0
    params: GameParams = field(default_factory=GameParams)

    def __post_init__(self):
        if not isinstance(self.n_blocks, (int, np.integer)) or self.n_blocks < 1:
            raise ValueError(f"n_blocks must be an integer >= 1, got {self.n_blocks!r}")
        if not isinstance(self.tx_per_block, (int, np.integer)) or self.tx_per_block < 1:
            raise ValueError(f"tx_per_block must be an integer >= 1, got {self.tx_per_block!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class SimOutcome:
    """Per-miner win counts plus the no-winner (orphan) count."""

    wins: np.ndarray
    orphans: int
    n_blocks: int

    @property
    def frequencies(self) -> np.ndarray:
        return self.wins / self.n_blocks


def _block_draws(seed: int, n_blocks: int) -> np.ndarray:
    """One uniform in [0, 1) per block from the seed's pinned PCG64 stream."""
    return np.random.Generator(np.random.PCG64(seed)).random(n_blocks)


def _count_below(draws: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Number of draws strictly below each threshold, as int64.

    Up to log2(len(draws)) thresholds cost one comparison pass over the
    draws each; past that, one sort of the draws and a binary search per
    threshold is cheaper.  Both give the same exact counts.
    """
    if thresholds.size <= math.log2(draws.size):
        return np.array([np.count_nonzero(draws < t) for t in thresholds], dtype=np.int64)
    return np.searchsorted(np.sort(draws), thresholds, side="left").astype(np.int64, copy=False)


def simulate_mining(profile, cfg: SimConfig) -> SimOutcome:
    """Run cfg.n_blocks categorical mining rounds; deterministic per seed."""
    shares = as_profile(profile).shares()
    # cumsum of nonnegative terms never decreases, so below[i] counts the
    # blocks won by miners 0..i
    cum = np.cumsum(shares * cfg.params.delay_discount(cfg.tx_per_block))
    below = _count_below(_block_draws(cfg.seed, cfg.n_blocks), cum)
    return SimOutcome(
        wins=np.diff(below, prepend=0),
        orphans=int(cfg.n_blocks - below[-1]),
        n_blocks=cfg.n_blocks,
    )


def first_miner_wins(profiles, cfg: SimConfig, n_seeds: int) -> np.ndarray:
    """Miner 0's win counts, one row per profile and one column per seed.

    Entry [j, k] equals ``simulate_mining(profiles[j], cfg).wins[0]`` run
    with seed cfg.seed + k.  Miner 0 wins a block exactly when its draw lies
    below share_0 * discount, so each seed's stream is drawn once and every
    profile's count is one threshold of ``_count_below`` on it.
    """
    if not isinstance(n_seeds, (int, np.integer)) or n_seeds < 1:
        raise ValueError(f"n_seeds must be an integer >= 1, got {n_seeds!r}")
    discount = cfg.params.delay_discount(cfg.tx_per_block)
    thresholds = np.array([as_profile(p).shares()[0] * discount for p in profiles])
    wins = np.empty((thresholds.size, n_seeds), dtype=np.int64)
    for k in range(n_seeds):
        wins[:, k] = _count_below(_block_draws(cfg.seed + k, cfg.n_blocks), thresholds)
    return wins


def empirical_success_prob(outcome: SimOutcome, i: int) -> float:
    """Observed win frequency of miner i."""
    if not 0 <= i < outcome.wins.size:
        raise IndexError(f"miner index {i} out of range")
    return float(outcome.wins[i]) / outcome.n_blocks


def mdg_baseline_profit(total_power: float, fee_schedule, params: GameParams,
                        mdg_delay_multiplier: float = 1.5) -> float:
    """Leader profit when devices do all mining under an inflated delay.

    With no edge power of its own the leader still collects the pool reward,
    but every transaction now pays the multiplied propagation penalty.  At
    multiplier 1 this equals edge_utility with the same fees.
    """
    if total_power <= 0:
        raise ValueError("total_power must be > 0")
    if mdg_delay_multiplier < 1:
        raise ValueError("mdg_delay_multiplier must be >= 1")
    fees = np.atleast_1d(np.asarray(fee_schedule, dtype=float))
    if fees.size and (not np.all(np.isfinite(fees)) or np.any(fees < 0)):
        raise ValueError("fees must be finite and >= 0")
    discount = params.delay_discount(params.tx_per_block * mdg_delay_multiplier)
    return params.total_reward * discount - math.fsum(fees) - params.edge_overhead


def emg_vs_mdg_sweep(total_power_grid, edge_fraction: float, params: GameParams,
                     unit_cost: float, mdg_delay_multiplier: float = 1.5,
                     objective: str = "full", fee_bracket=None):
    """Profit comparison at equal total power, row per grid point.

    The edge scheme contributes edge_fraction of the total power itself and
    pays the stage-I optimal fee for the recruited remainder; the baseline
    recruits the full total at the same per-power fee rate, so the edge's
    own share goes un-fee'd.  Rows are ordered by total power.  One batched
    stage-I search (optimal_fees_uniform) prices the whole grid.
    """
    if not 0 < edge_fraction < 1:
        raise ValueError(f"edge_fraction must lie in (0, 1), got {edge_fraction!r}")
    totals = np.sort(np.atleast_1d(np.asarray(total_power_grid, dtype=float)))
    if not totals.size:
        return []
    if np.any(totals <= 0):
        raise ValueError("total power grid entries must be > 0")
    if mdg_delay_multiplier < 1:
        raise ValueError("mdg_delay_multiplier must be >= 1")
    edge_power = edge_fraction * totals
    fee_emg, _ = optimal_fees_uniform(edge_power, unit_cost, params,
                                      objective=objective, bracket=fee_bracket)
    device_power = totals - edge_power
    with np.errstate(over="ignore", divide="ignore"):
        fee_mdg = fee_emg * totals / device_power
    if not np.all(np.isfinite(fee_mdg)):
        raise ValueError("fees must be finite and >= 0")
    # edge_utility and mdg_baseline_profit with one fee each, elementwise
    reward = params.total_reward * params.delay_discount(params.tx_per_block)
    reward_mdg = params.total_reward * params.delay_discount(
        params.tx_per_block * mdg_delay_multiplier)
    profit_emg = reward - fee_emg - params.edge_overhead
    profit_mdg = reward_mdg - fee_mdg - params.edge_overhead
    columns = {
        "total_power": totals,
        "edge_power": edge_power,
        "device_power": device_power,
        "fee_emg": fee_emg,
        "fee_mdg": fee_mdg,
        "profit_emg": profit_emg,
        "profit_mdg": profit_mdg,
        "profit_gap": profit_emg - profit_mdg,
    }
    return [dict(zip(columns, values))
            for values in zip(*(column.tolist() for column in columns.values()))]
