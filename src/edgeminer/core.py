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
    "InfeasibleEquilibriumError",
    "OBJECTIVES",
    "PowerProfile",
    "as_profile",
    "check_objective",
    "edge_utility",
    "fee_bracket",
    "leader_reward_scale",
    "miner_utility",
    "mining_success_prob",
    "power_share",
]


# leader objectives: "full" charges the fee, "simplified" drops the fee term
OBJECTIVES = ("full", "simplified")


class DegenerateProfileError(ValueError):
    """Power shares were requested for a profile with zero total power."""


class InfeasibleEquilibriumError(ValueError):
    """Closed-form equilibrium left the nonnegative orthant."""

    def __init__(self, message: str, indices=()):
        super().__init__(message)
        self.indices = tuple(int(i) for i in indices)


class ConvergenceError(RuntimeError):
    """An iterative procedure exhausted its iteration budget."""

    def __init__(self, message: str, last=None, prev=None, trace=None):
        super().__init__(message)
        self.last = last
        self.prev = prev
        self.trace = trace


class ConfigError(ValueError):
    """Invalid search bracket or experiment configuration."""

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
    propagation penalty (discount factor 1).
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
        for name in ("fixed_reward", "tx_reward", "poisson_rate", "delay_factor",
                     "edge_overhead", "min_consumption"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float, np.floating)) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        for name in ("tx_per_block", "mobile_tx_load"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    @property
    def total_reward(self) -> float:
        """Fixed plus transaction reward for a mined block."""
        return self.fixed_reward + self.tx_reward

    def delay_discount(self, tx_count) -> float:
        """Propagation discount e^(-rate * delay * tx_count), in [0, 1].

        It underflows to 0 for large exponents (poisson_rate 100 with
        mobile_tx_load 10).  The simulator then records every block as an
        orphan, and the simplified objective rejects a zero discount.
        """
        if tx_count < 0:
            raise ValueError(f"tx_count must be >= 0, got {tx_count!r}")
        return math.exp(-self.poisson_rate * self.delay_factor * tx_count)


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
        # compensated summation keeps the share sum within 1e-12 of 1
        return math.fsum(self.powers)

    def shares(self) -> np.ndarray:
        total = self.total
        if total <= 0:
            raise DegenerateProfileError("all miners have zero power; shares undefined")
        return self.powers / total

    def scaled(self, factor: float) -> "PowerProfile":
        if factor <= 0:
            raise ValueError("scale factor must be > 0")
        return PowerProfile(self.powers * factor)


def as_profile(profile) -> PowerProfile:
    """Coerce an array-like of powers into a PowerProfile."""
    if isinstance(profile, PowerProfile):
        return profile
    return PowerProfile(np.asarray(profile, dtype=float))


def power_share(profile, i: int) -> float:
    """Fraction of total computing power held by miner i."""
    prof = as_profile(profile)
    if not 0 <= i < len(prof):
        raise IndexError(f"miner index {i} out of range for {len(prof)} miners")
    return float(prof.shares()[i])


def mining_success_prob(share: float, params: GameParams, tx_count) -> float:
    """Probability that a miner with the given power share mines the block.

    share * e^(-rate * delay * tx_count); never exceeds the share itself.
    """
    if not 0 <= share <= 1:
        raise ValueError(f"share must lie in [0, 1], got {share!r}")
    return share * params.delay_discount(tx_count)


def edge_utility(params: GameParams, fees) -> float:
    """Edge-server utility: discounted block reward minus fees and overhead."""
    fees = np.atleast_1d(np.asarray(fees, dtype=float))
    if fees.size and (not np.all(np.isfinite(fees)) or np.any(fees < 0)):
        raise ValueError("fees must be finite and >= 0")
    reward = params.total_reward * params.delay_discount(params.tx_per_block)
    return reward - math.fsum(fees) - params.edge_overhead


def miner_utility(fee: float, profile, i: int, unit_cost: float, params: GameParams) -> float:
    """Device utility: discounted share-weighted fee minus the power cost."""
    if fee < 0:
        raise ValueError("fee must be >= 0")
    if unit_cost <= 0:
        raise ValueError("unit_cost must be > 0")
    prof = as_profile(profile)
    share = power_share(prof, i)
    reward = fee * share * params.delay_discount(params.mobile_tx_load)
    return reward - unit_cost * float(prof.powers[i])


def leader_reward_scale(params: GameParams) -> float:
    """Reward available per unit of pool share on the device-load discount."""
    return params.total_reward * params.delay_discount(params.mobile_tx_load)


def check_objective(objective: str):
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


def fee_bracket(params: GameParams, bracket=None):
    """Stage-I fee bracket (lo, hi), floored at the devices' minimum consumption.

    The floor is max(min_consumption, 1e-6): fees below it are refused.  The
    default bracket is [floor, 100*a], with a the leader reward scale.
    """
    floor = max(params.min_consumption, 1e-6)
    if bracket is None:
        a = leader_reward_scale(params)
        lo, hi = floor, (100.0 * a if a > 0 else 10.0 * floor)
    else:
        lo, hi = max(float(bracket[0]), floor), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
        raise ConfigError(
            f"fee bracket must satisfy 0 < lo < hi after the participation floor "
            f"{floor:g}; got [{lo:g}, {hi:g}]")
    return lo, hi
