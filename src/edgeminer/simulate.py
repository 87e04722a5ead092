"""Monte-Carlo block mining and the delayed-baseline profit comparison.

Each simulated block is one categorical draw: miner i wins with probability
share_i * e^(-rate*tx), and the residual 1 - e^(-rate*tx) is an
orphaned round with no winner, so per-miner win probabilities match the
model exactly.  The PRNG is pinned to numpy's PCG64 so seeded runs are
bit-reproducible.

The blocks are independent draws and no block sequence is reported, so a
seed's counts over n blocks are one Multinomial(n, [p_1, ..., p_M,
orphan]) draw: numpy's binomial splitting, in time and memory that do not
depend on n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GameParams, as_profile, is_integer, mining_success_prob, net_profit
from .uniform import optimal_fees_uniform, reject_nonfinite_profits

__all__ = [
    "SimConfig",
    "SimOutcome",
    "emg_vs_mdg_sweep",
    "first_miner_wins",
    "simulate_mining",
]


@dataclass(frozen=True)
class SimConfig:
    """Simulation setup: 1000 blocks by default, of params.tx_per_block transactions."""

    n_blocks: int = 1000
    seed: int = 0
    params: GameParams = field(default_factory=GameParams)

    def __post_init__(self):
        if not is_integer(self.n_blocks) or self.n_blocks < 1:
            raise ValueError(f"n_blocks must be an integer >= 1, got {self.n_blocks!r}")
        if not is_integer(self.seed) or self.seed < 0:
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


def _counts(seed, n_blocks: int, cells: np.ndarray) -> np.ndarray:
    """One int64 Multinomial(n_blocks, cells) draw on PCG64(seed); numpy sets
    the last cell to 1 minus the others' sum, so it takes the rounds left over."""
    return np.random.Generator(np.random.PCG64(seed)).multinomial(n_blocks, cells)


def simulate_mining(profile, cfg: SimConfig) -> SimOutcome:
    """Run cfg.n_blocks categorical mining rounds; deterministic per seed."""
    probs = mining_success_prob(as_profile(profile).shares(), cfg.params)
    counts = _counts(cfg.seed, cfg.n_blocks, np.append(probs, 0.0))
    return SimOutcome(wins=counts[:-1], orphans=int(counts[-1]), n_blocks=cfg.n_blocks)


def first_miner_wins(win_probs, cfg: SimConfig, n_seeds: int) -> np.ndarray:
    """Miner 0's win counts, one row per win probability and one column per seed.

    Column k splits seed cfg.seed + k's rounds over the sorted probabilities'
    increments [t_(1), t_(2) - t_(1), ...] and the remainder in one draw, and
    row j sums the cells up to win_probs[j].  So counts never fall as the
    probability rises, and the smallest probability's row is
    ``simulate_mining(profile, cfg).wins[0]`` for a miner 0 with that probability.
    """
    if not is_integer(n_seeds) or n_seeds < 1:
        raise ValueError(f"n_seeds must be an integer >= 1, got {n_seeds!r}")
    thresholds = np.asarray(win_probs, dtype=float)
    if not np.all((thresholds >= 0) & (thresholds <= 1)):
        raise ValueError(f"win_probs must lie in [0, 1], got {win_probs!r}")
    order = np.argsort(thresholds, kind="stable")
    cells = np.append(np.diff(thresholds[order], prepend=0.0), 0.0)
    seeds = range(cfg.seed, cfg.seed + n_seeds)
    draws = [_counts(seed, cfg.n_blocks, cells)[:-1] for seed in seeds]
    counts = np.empty((thresholds.size, n_seeds), dtype=np.int64)
    counts[order] = np.cumsum(draws, axis=1).T
    return counts


def emg_vs_mdg_sweep(total_power_grid, edge_fraction: float, params: GameParams,
                     unit_cost: float, mdg_delay_multiplier: float = 1.5) -> dict:
    """Profit comparison at equal total power, one column entry per grid point.

    The edge scheme contributes edge_fraction of the total power itself and
    pays the stage-I optimal fee for the recruited remainder; the baseline
    recruits the full total at the same per-power fee rate, so the edge's
    own share goes un-fee'd.  Entries are ordered by total power.  One
    closed-form stage-I call (optimal_fees_uniform) prices the whole grid.
    Returns column name -> float64 array; an empty grid gives the same
    names with empty arrays.  A baseline fee fee_emg * total / device_power
    that overflows raises ValueError naming its instance
    (reject_nonfinite_profits).
    """
    if not 0 < edge_fraction < 1:
        raise ValueError(f"edge_fraction must lie in (0, 1), got {edge_fraction!r}")
    totals = np.sort(np.atleast_1d(np.asarray(total_power_grid, dtype=float)))
    if np.any(totals <= 0):
        raise ValueError("total power grid entries must be > 0")
    if mdg_delay_multiplier < 1:
        raise ValueError("mdg_delay_multiplier must be >= 1")
    edge_power = edge_fraction * totals
    fee_emg, _ = optimal_fees_uniform(edge_power, unit_cost, params)
    device_power = totals - edge_power
    with np.errstate(over="ignore", divide="ignore"):
        fee_mdg = fee_emg * totals / device_power
    reject_nonfinite_profits(edge_power, fee_emg, fee_mdg, "fee_mdg")
    profit_emg = net_profit(params, fee_emg)
    profit_mdg = net_profit(params, fee_mdg, mdg_delay_multiplier)
    return {
        "total_power": totals,
        "edge_power": edge_power,
        "device_power": device_power,
        "fee_emg": fee_emg,
        "fee_mdg": fee_mdg,
        "profit_emg": profit_emg,
        "profit_mdg": profit_mdg,
        "profit_gap": profit_emg - profit_mdg,
    }
