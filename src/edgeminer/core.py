"""Shared domain types and the primitive reward/cost formulas.

Everything here is a pure function of its arguments; the dataclasses are
frozen and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "DegenerateProfileError",
    "GameParams",
    "OBJECTIVES",
    "PowerProfile",
    "as_profile",
    "check_objective",
    "device_discount",
    "fee_bracket",
    "leader_reward_scale",
    "mining_success_prob",
    "net_profit",
    "participation_floor",
]


# leader objectives: "full" charges the fee, "simplified" drops the fee term
OBJECTIVES = ("full", "simplified")


def is_integer(value) -> bool:
    # bool is an int subclass, but True blocks or seeds are a caller's mistake
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class DegenerateProfileError(ValueError):
    """Power shares were requested for a profile with zero total power."""


class ConvergenceError(RuntimeError):
    """An iterative procedure exhausted its iteration budget."""

    def __init__(self, message: str, last=None, prev=None, trace=None):
        super().__init__(message)
        self.last = last
        self.prev = prev
        self.trace = trace


class ConfigError(ValueError):
    """Invalid search bracket, game constants or settings; ``errors`` lists each one."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class GameParams:
    """Global economic and timing constants.

    ``tx_per_block`` is the transaction load on the block-reward side,
    ``mobile_tx_load`` the verification load seen by recruited devices.
    The model keeps them independent; by default they are equal.
    Zero ``poisson_rate`` or ``delay_factor`` is allowed and means no
    propagation penalty (discount factor 1).  Invalid fields raise one ConfigError.
    """

    fixed_reward: float = 10.0
    tx_reward: float = 2.0
    poisson_rate: float = 0.01
    delay_factor: float = 1.0
    tx_per_block: int = 10
    mobile_tx_load: int = 10
    edge_overhead: float = 0.5
    min_consumption: float = 0.1

    def __post_init__(self):
        errors = []
        for name in ("fixed_reward", "tx_reward", "poisson_rate", "delay_factor",
                     "edge_overhead", "min_consumption"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float, np.floating)) and math.isfinite(value)):
                errors.append(f"{name} must be finite, got {value!r}")
            elif value < 0:
                errors.append(f"{name} must be >= 0, got {value!r}")
        for name in ("tx_per_block", "mobile_tx_load"):
            value = getattr(self, name)
            if not is_integer(value) or value < 1:
                errors.append(f"{name} must be an integer >= 1, got {value!r}")
        if errors:
            raise ConfigError(errors)

    @property
    def total_reward(self) -> float:
        """Fixed plus transaction reward for a mined block."""
        return self.fixed_reward + self.tx_reward

    def delay_discount(self, tx_load) -> float:
        """Propagation discount e^(-rate * delay * tx_load), in [0, 1].

        It underflows to 0 for large exponents (poisson_rate 100 with
        mobile_tx_load 10).  The simulator then records every block as an
        orphan, and no fee buys device power.
        """
        if tx_load < 0:
            raise ValueError(f"tx_load must be >= 0, got {tx_load!r}")
        return math.exp(-self.poisson_rate * self.delay_factor * tx_load)


@dataclass(frozen=True)
class PowerProfile:
    """Vector of nonnegative computing powers, one entry per miner."""

    powers: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.powers, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("powers must be a nonempty 1-D vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("powers must be finite and >= 0")
        object.__setattr__(self, "powers", arr)

    def __len__(self) -> int:
        return self.powers.size

    @property
    def total(self) -> float:
        # fsum keeps the share sum within 1e-12 of 1 (and iterates a list fastest)
        return math.fsum(self.powers.tolist())

    def shares(self) -> np.ndarray:
        total = self.total
        if total <= 0:
            raise DegenerateProfileError("all miners have zero power; shares undefined")
        return self.powers / total


def as_profile(profile) -> PowerProfile:
    """Coerce an array-like of powers into a PowerProfile."""
    if isinstance(profile, PowerProfile):
        return profile
    return PowerProfile(np.asarray(profile, dtype=float))


def mining_success_prob(share, params: GameParams):
    """Probability that a miner with the given power share mines a block.

    share * e^(-rate * delay * tx_per_block), elementwise; shares outside
    [0, 1] are rejected.
    """
    shares = np.asarray(share, dtype=float)
    if not np.all((shares >= 0) & (shares <= 1)):
        raise ValueError(f"share must lie in [0, 1], got {share!r}")
    return shares * params.delay_discount(params.tx_per_block)


def net_profit(params: GameParams, bill, delay_multiplier=1):
    """Leader's net profit, elementwise: total_reward * e^(-rate*delay*tx*m) - bill - overhead."""
    reward = params.total_reward * params.delay_discount(params.tx_per_block * delay_multiplier)
    return reward - bill - params.edge_overhead


def leader_reward_scale(params: GameParams) -> float:
    """Reward available per unit of pool share on the device-load discount."""
    return params.total_reward * params.delay_discount(params.mobile_tx_load)


def device_discount(params: GameParams) -> float:
    """The device-load delay discount, rejected where it underflows to 0."""
    discount = params.delay_discount(params.mobile_tx_load)
    if discount == 0:
        raise ValueError("the device-load delay discount underflows to 0: no fee buys power")
    return discount


def check_objective(objective: str):
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


def participation_floor(params: GameParams) -> float:
    """Lowest fee devices accept: max(min_consumption, 1e-6)."""
    return max(params.min_consumption, 1e-6)


def fee_bracket(params: GameParams):
    """Stage-I fee bracket (lo, hi): [participation_floor, 100*a].

    a is the leader reward scale; with no reward (a == 0) the top is
    10 * floor.  Fees below the floor are refused.
    """
    lo = participation_floor(params)
    a = leader_reward_scale(params)
    hi = 100.0 * a if a > 0 else 10.0 * lo
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
        raise ConfigError(
            f"fee bracket must satisfy 0 < lo < hi after the participation floor "
            f"{lo:g}; got [{lo:g}, {hi:g}]")
    return lo, hi
