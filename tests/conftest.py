"""Shared instance generators and settings helpers for the test suite.

All randomness is seeded so every run sees the same instances.
"""

import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

from edgeminer import (
    DiscriminatoryGame,
    ExperimentConfig,
    GameParams,
    aggregate_miner_utility,
    golden_section_max,
    leader_delta_utility_uniform,
    leader_reward_scale,
    pool_responses,
    uniqueness_certificate_uniform,
)
from edgeminer.core import stage1_setup
from edgeminer.experiments import KIND_TABLE, KINDS

# every setting's default, and valid non-default raw values for those whose default
# gives no hint
DEFAULTS = {f.name: f.default for cls in (GameParams, ExperimentConfig)
            for f in dataclasses.fields(cls) if f.name != "params"}
_RAW_VALUES = {
    "fee": "2.5", "fees": "4, 8", "objective": "full",
    "fee_search": "hillclimb", "grid_start": "2.5", "grid_stop": "20", "grid_steps": "3",
    "edge_fractions": "0.2,0.7", "powers": "1,2", "out": "x.json", "format": "json",
}


def raw_value(name):
    """A valid flag or config-file text for a setting, whose value is not its default."""
    if name in _RAW_VALUES:
        return _RAW_VALUES[name]
    default = DEFAULTS[name]
    return str(default + 1) if isinstance(default, int) else repr(1.5 * default)


def reader(name):
    """The first kind that reads a setting; fig1 for out and format, which every kind reads."""
    return next((kind for kind in KINDS if name in KIND_TABLE[kind].reads), "fig1")


def kind_argv(kind, fees=True):
    """The command line that selects a kind; solve-disc's carries the fees it requires."""
    argv = ["fig", kind[3:]] if kind.startswith("fig") else [kind]
    return argv + ["--fees", "4,8"] if kind == "solve-disc" and fees else argv


def binomial_chain(seed, n_blocks, probs):
    """A multinomial draw as its chain of binomials, in the order numpy draws them.

    Cell j takes Binomial(rounds left, p_j / probability left) of what the
    cells before it left, on one PCG64(seed) generator; the last cell takes
    the rest.  Rounding can put the ratio a few ulps above 1, where numpy's
    binomial gives every round left, as a ratio of 1 does.  An empty cell
    draws nothing.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    counts, left, mass = [], n_blocks, 1.0
    for p in probs:
        counts.append(int(rng.binomial(left, min(p / mass, 1.0))) if left else 0)
        left, mass = left - counts[-1], mass - p
    return counts + [left]


def zero_delay_params(**overrides) -> GameParams:
    """Params with no propagation penalty, so discounts are exactly 1."""
    defaults = dict(fixed_reward=10.0, tx_reward=0.0, poisson_rate=0.0,
                    tx_per_block=10, mobile_tx_load=10, edge_overhead=0.0,
                    min_consumption=0.1)
    defaults.update(overrides)
    return GameParams(**defaults)


class UniformInstance(NamedTuple):
    """One uniform-fee game, as the scalar arguments of the uniform kernels."""

    edge_power: float
    fee: float
    unit_cost: float
    params: GameParams = GameParams()

    @property
    def discount(self):
        return self.params.delay_discount(self.params.mobile_tx_load)

    @property
    def kappa(self):
        """The fee discounted by the device load."""
        return self.fee * self.discount

    def utility(self, pool_power):
        return aggregate_miner_utility(self.kappa, self.edge_power, self.unit_cost, pool_power)

    def response(self):
        return pool_responses(self.kappa, self.edge_power, self.unit_cost)

    def leader(self, objective):
        return leader_delta_utility_uniform(self.fee, self.edge_power, self.unit_cost,
                                            self.discount, leader_reward_scale(self.params),
                                            objective)

    def certificate(self):
        """(below_quarter_bound, below_positivity_bound)."""
        return uniqueness_certificate_uniform(self.kappa, self.edge_power, self.unit_cost)


def random_uniform_games(n, seed=0):
    """Valid uniform-fee instances with bounded kappa/unit_cost (fast oracles)."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(n):
        params = GameParams(
            fixed_reward=float(rng.uniform(1.0, 20.0)),
            tx_reward=float(rng.uniform(0.0, 5.0)),
            # the penalty per transaction: a rate times a per-transaction delay
            poisson_rate=float(rng.uniform(0.0, 0.02)) * float(rng.uniform(0.5, 2.0)),
            tx_per_block=int(rng.integers(1, 20)),
            mobile_tx_load=int(rng.integers(1, 20)),
        )
        games.append(UniformInstance(
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
            poisson_rate=float(rng.uniform(0.0, 0.02)) * float(rng.uniform(0.5, 2.0)),
            mobile_tx_load=int(rng.integers(1, 20)),
        )
        games.append(DiscriminatoryGame(fees, float(rng.uniform(0.2, 2.0)), params))
    return games


def assert_stage1_optimum(fee, profit, edge_power, unit_cost, params):
    """A uniform stage-I (fee, profit) against the scalar golden-section oracle.

    The profit is the leader's full profit at the fee, bit for bit (None: not
    reported), and at least the oracle's (rel_tol 1e-12) less
    1e-12 * max(1, |oracle|); where the oracle lands on a bracket end, the
    fee is that end exactly.
    """
    def profit_at(p):
        # overflow gives inf or nan, as Python floats do
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return float(UniformInstance(edge_power, p, unit_cost, params).leader("full"))

    lo, hi = stage1_setup(params)[2:]
    oracle_fee, oracle_profit = golden_section_max(profit_at, lo, hi, rel_tol=1e-12)
    assert lo <= fee <= hi
    if profit is None:
        profit = profit_at(fee)
    assert profit == profit_at(fee)
    assert profit >= oracle_profit - 1e-12 * max(1.0, abs(oracle_profit))
    if oracle_fee in (lo, hi):
        assert fee == oracle_fee


@pytest.fixture
def zero_delay():
    return zero_delay_params()
