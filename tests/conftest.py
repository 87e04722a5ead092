"""Shared instance generators for the test suite.

All randomness is seeded so every run sees the same instances.
"""

import numpy as np
import pytest

from edgeminer import DiscriminatoryGame, GameParams, UniformGame


def zero_delay_params(**overrides) -> GameParams:
    """Params with no propagation penalty, so discounts are exactly 1."""
    defaults = dict(fixed_reward=10.0, tx_reward=0.0, poisson_rate=0.0,
                    delay_factor=1.0, tx_per_block=10, mobile_tx_load=10,
                    edge_overhead=0.0, min_consumption=0.1)
    defaults.update(overrides)
    return GameParams(**defaults)


def random_uniform_games(n, seed=0):
    """Valid uniform-fee instances with bounded kappa/unit_cost (fast oracles)."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(n):
        params = GameParams(
            fixed_reward=float(rng.uniform(1.0, 20.0)),
            tx_reward=float(rng.uniform(0.0, 5.0)),
            poisson_rate=float(rng.uniform(0.0, 0.02)),
            delay_factor=float(rng.uniform(0.5, 2.0)),
            tx_per_block=int(rng.integers(1, 20)),
            mobile_tx_load=int(rng.integers(1, 20)),
        )
        games.append(UniformGame(
            edge_power=float(rng.uniform(0.05, 2.0)),
            fee=float(rng.uniform(0.5, 5.0)),
            unit_cost=float(rng.uniform(0.5, 2.0)),
            params=params,
        ))
    return games


def random_feasible_disc_games(n, seed=0, m_range=(2, 10)):
    """Discriminatory instances whose closed-form allocation is interior."""
    rng = np.random.default_rng(seed)
    games = []
    while len(games) < n:
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        fees = rng.uniform(1.0, 8.0, m)
        inv = 1.0 / fees
        if (m - 1) * inv.max() >= inv.sum():
            continue  # dispersed fees: some miner would stay out
        params = GameParams(
            poisson_rate=float(rng.uniform(0.0, 0.02)),
            delay_factor=float(rng.uniform(0.5, 2.0)),
            mobile_tx_load=int(rng.integers(1, 20)),
        )
        games.append(DiscriminatoryGame(fees, float(rng.uniform(0.2, 2.0)), params))
    return games


@pytest.fixture
def zero_delay():
    return zero_delay_params()
