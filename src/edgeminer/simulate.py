"""Monte-Carlo block mining and the delayed-baseline profit comparison.

Each simulated block is one categorical draw: miner i wins with probability
share_i * e^(-rate*delay*tx), and the residual 1 - e^(-rate*delay*tx) is an
orphaned round with no winner, so per-miner win probabilities match the
model exactly.  The PRNG is pinned to numpy's PCG64 so seeded runs are
bit-reproducible.

A block's uniform draw u goes to miner i when cum[i-1] <= u < cum[i], with
cum the cumulative win probabilities, so the number of blocks won by miners
0..i is the number of draws below cum[i].  Wins are counted that way
(``_count_below``), never block by block, over draws streamed 65,536 at a
time (``_count_stream_below``): chunked PCG64 gives the same doubles as one
call and the counts are exact integers, so results do not depend on the
chunk size, and memory does not depend on n_blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GameParams, as_profile, is_integer, mining_success_prob, net_profit
from .uniform import optimal_fees_uniform

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


_CHUNK = 1 << 16
# on one full chunk, 25 comparison passes cost about what one sort does
_COMPARE_UP_TO = 25


def _count_below(draws: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Number of draws strictly below each threshold, as int64.

    Up to ``_COMPARE_UP_TO`` thresholds cost one comparison pass over the
    draws each; past that, one sort of the draws and a binary search per
    threshold is cheaper.  Both give the same exact counts.
    """
    if thresholds.size <= _COMPARE_UP_TO:
        return np.array([np.count_nonzero(draws < t) for t in thresholds], dtype=np.int64)
    return np.searchsorted(np.sort(draws), thresholds, side="left").astype(np.int64, copy=False)


def _count_stream_below(seed: int, n_blocks: int, thresholds: np.ndarray) -> np.ndarray:
    """``_count_below`` over the seed's n_blocks draws, one uniform in [0, 1) per block.

    The draws come from the seed's pinned PCG64 stream ``_CHUNK`` at a time
    into one reused buffer.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    buffer = np.empty(min(n_blocks, _CHUNK))
    counts = np.zeros(thresholds.size, dtype=np.int64)
    for start in range(0, n_blocks, _CHUNK):
        draws = buffer[:min(_CHUNK, n_blocks - start)]
        rng.random(out=draws)
        counts += _count_below(draws, thresholds)
    return counts


def simulate_mining(profile, cfg: SimConfig) -> SimOutcome:
    """Run cfg.n_blocks categorical mining rounds; deterministic per seed."""
    shares = as_profile(profile).shares()
    # cumsum of nonnegative terms never decreases, so below[i] counts the
    # blocks won by miners 0..i
    cum = np.cumsum(mining_success_prob(shares, cfg.params))
    below = _count_stream_below(cfg.seed, cfg.n_blocks, cum)
    return SimOutcome(
        wins=np.diff(below, prepend=0),
        orphans=int(cfg.n_blocks - below[-1]),
        n_blocks=cfg.n_blocks,
    )


def first_miner_wins(win_probs, cfg: SimConfig, n_seeds: int) -> np.ndarray:
    """Miner 0's win counts, one row per win probability and one column per seed.

    Entry [j, k] is ``simulate_mining(profile, cfg).wins[0]`` with seed
    cfg.seed + k when miner 0 of the profile wins with probability
    win_probs[j], i.e. the number of that seed's draws below win_probs[j].
    """
    if not is_integer(n_seeds) or n_seeds < 1:
        raise ValueError(f"n_seeds must be an integer >= 1, got {n_seeds!r}")
    thresholds = np.asarray(win_probs, dtype=float)
    wins = np.empty((thresholds.size, n_seeds), dtype=np.int64)
    for k in range(n_seeds):
        wins[:, k] = _count_stream_below(cfg.seed + k, cfg.n_blocks, thresholds)
    return wins


def emg_vs_mdg_sweep(total_power_grid, edge_fraction: float, params: GameParams,
                     unit_cost: float, mdg_delay_multiplier: float = 1.5) -> dict:
    """Profit comparison at equal total power, one column entry per grid point.

    The edge scheme contributes edge_fraction of the total power itself and
    pays the stage-I optimal fee for the recruited remainder; the baseline
    recruits the full total at the same per-power fee rate, so the edge's
    own share goes un-fee'd.  Entries are ordered by total power.  One
    closed-form stage-I call (optimal_fees_uniform) prices the whole grid.
    Returns column name -> list of floats; an empty grid gives the same
    names with empty lists.
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
    if not np.all(np.isfinite(fee_mdg)):
        raise ValueError("fees must be finite and >= 0")
    profit_emg = net_profit(params, fee_emg)
    profit_mdg = net_profit(params, fee_mdg, mdg_delay_multiplier)
    return {
        "total_power": totals.tolist(),
        "edge_power": edge_power.tolist(),
        "device_power": device_power.tolist(),
        "fee_emg": fee_emg.tolist(),
        "fee_mdg": fee_mdg.tolist(),
        "profit_emg": profit_emg.tolist(),
        "profit_mdg": profit_mdg.tolist(),
        "profit_gap": (profit_emg - profit_mdg).tolist(),
    }
