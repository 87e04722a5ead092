"""Monte-Carlo block mining and the delayed-baseline profit comparison.

Each simulated block is one categorical draw: miner i wins with probability
share_i * e^(-rate*tx), and the residual 1 - e^(-rate*tx) is an
orphaned round with no winner, so per-miner win probabilities match the
model exactly.  The PRNG is pinned to numpy's PCG64 so seeded runs are
bit-reproducible.

A block's uniform draw u goes to miner i when cum[i-1] <= u < cum[i], with
cum the cumulative win probabilities, so the number of blocks won by miners
0..i is the number of draws below cum[i].  Wins are counted that way
(``_count_below``), never block by block, and ``_count_streams_below``
splits each seed's draws into units that one CPU, or two on long streams,
claim.  PCG64 jumped ahead (``advance``) gives the same doubles as one
call and the counts are exact integer sums, so results depend neither on
the CPU count nor on the unit size; all workers' buffers together hold one
chunk of 65,536 draws, so memory does not depend on n_blocks.
"""

from __future__ import annotations

import itertools
import os
import threading
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


_CHUNK = 1 << 16
# on one full chunk, 25 comparison passes cost about what one sort does
_COMPARE_UP_TO = 25
# one worker per 4 chunks of draws, and at most two: timed on 2 vCPUs, two
# workers took 0.93-1.16x one worker's time on 3-4 chunks (fig1's 20 seeds x
# 10,000 blocks among them), 0.78-0.88x on 8 and 0.54-0.60x on 46; more than
# two workers have not been timed
_MAX_WORKERS = 2
_DRAWS_PER_WORKER = 4 * _CHUNK


def _count_below(draws: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Number of draws strictly below each threshold, as int64.

    Up to ``_COMPARE_UP_TO`` thresholds cost one comparison pass over the
    draws each; past that, one sort of the draws and a binary search per
    threshold is cheaper.  Both give the same exact counts.
    """
    if thresholds.size <= _COMPARE_UP_TO:
        return np.array([np.count_nonzero(draws < t) for t in thresholds], dtype=np.int64)
    return np.searchsorted(np.sort(draws), thresholds, side="left").astype(np.int64, copy=False)


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_streams_below(seeds, n_blocks: int, thresholds: np.ndarray) -> np.ndarray:
    """``_count_below`` over each seed's n_blocks draws: row k counts seeds[k]'s stream.

    Each seed's stream is cut into units of ``_CHUNK // workers`` draws.
    There is one worker per ``_DRAWS_PER_WORKER`` draws of all the seeds, up
    to the CPU count and ``_MAX_WORKERS``: a helper thread costs 0.05-0.4 ms
    to start and to trade the interpreter lock with (2 vCPUs), which shorter
    streams do not repay, and one worker runs on the caller alone.  The
    calling thread and workers - 1 helper threads claim units from one
    shared iterator, so a faster CPU takes more of them.  A worker makes a
    seed's PCG64 when it first meets the seed and drops it once the seed's
    stream is drawn, advances it to the first draw of each unit it claimed,
    draws the unit into its one reused buffer and adds its counts to its own
    int64 totals.  Helpers are joined before return, and the first exception
    a worker raised is raised here.
    """
    workers = max(1, min(_cpus(), _MAX_WORKERS, len(seeds) * n_blocks // _DRAWS_PER_WORKER))
    unit = _CHUNK // workers
    claims = itertools.product(range(len(seeds)), range(0, n_blocks, unit))
    claiming = threading.Lock()
    totals, errors = [], []  # a worker stops claiming once errors is not empty

    def work():
        try:
            counts = np.zeros((len(seeds), thresholds.size), dtype=np.int64)
            totals.append(counts)
            buffer = np.empty(min(unit, n_blocks))
            rngs = [None] * len(seeds)
            drawn = [0] * len(seeds)  # per seed, the index of its generator's next draw
            while not errors:
                with claiming:
                    claim = next(claims, None)
                if claim is None:
                    return
                k, first = claim
                if rngs[k] is None:
                    rngs[k] = np.random.Generator(np.random.PCG64(seeds[k]))
                if first > drawn[k]:
                    rngs[k].bit_generator.advance(first - drawn[k])
                draws = buffer[:min(unit, n_blocks - first)]
                rngs[k].random(out=draws)
                drawn[k] = first + draws.size
                if drawn[k] == n_blocks:  # no other unit of this seed is left
                    rngs[k] = None
                counts[k] += _count_below(draws, thresholds)
        except Exception as error:  # re-raised on the caller
            errors.append(error)

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    except BaseException as error:  # an interrupt, say: the helpers stop too
        errors.append(error)
        raise
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return sum(totals)


def simulate_mining(profile, cfg: SimConfig) -> SimOutcome:
    """Run cfg.n_blocks categorical mining rounds; deterministic per seed."""
    shares = as_profile(profile).shares()
    # cumsum of nonnegative terms never decreases, so below[i] counts the
    # blocks won by miners 0..i
    cum = np.cumsum(mining_success_prob(shares, cfg.params))
    below = _count_streams_below([cfg.seed], cfg.n_blocks, cum)[0]
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
    counts = _count_streams_below(range(cfg.seed, cfg.seed + n_seeds), cfg.n_blocks, thresholds)
    return np.ascontiguousarray(counts.T)


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
