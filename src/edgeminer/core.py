"""Shared domain types and the primitive reward/cost formulas.

Everything here is a pure function of its arguments; the dataclasses are
frozen and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, fields

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
    "leader_reward_scale",
    "mining_success_prob",
    "net_profit",
    "participation_floor",
    "stage1_setup",
]


# leader objectives: "full" charges the fee, "simplified" drops the fee term
OBJECTIVES = ("full", "simplified")


def is_integer(value) -> bool:
    # bool is an int subclass, but True blocks or seeds are a caller's mistake
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def type_error(field: Field, value) -> str | None:
    """The one error of a setting whose value does not fit its field's annotation, else None.

    An ``int`` takes an integer, a ``float`` a finite real number and a ``tuple`` a flat
    list of finite real numbers, none of them a bool; ``| None`` also takes None.
    """
    kind, _, optional = field.type.partition(" | ")
    if value is None and optional or kind not in ("int", "float", "tuple"):
        return None
    if kind == "int":
        return None if is_integer(value) else f"{field.name} must be an integer, got {value!r}"
    if kind == "float":  # a Python or numpy int or float; numbers.Real costs 8x as much
        finite = (isinstance(value, (float, int, np.floating, np.integer))
                  and not isinstance(value, bool) and math.isfinite(value))
    else:
        try:  # a 2-d array's rows would pass math.isfinite
            finite = all(map(math.isfinite, value)) if getattr(value, "ndim", 1) == 1 else None
        except TypeError:  # not iterable, or an item that is not a real number
            finite = None
        if finite is None or {bool, np.bool_}.intersection(map(type, value)):
            return f"{field.name} must be a flat list of real numbers"
    return None if finite else f"{field.name} must be finite, got {value!r}"


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
    ``poisson_rate`` is the propagation penalty per transaction (the paper's rate
    times the per-transaction delay); 0 means none.  Each field gets its type error
    (type_error), or else must be >= 0, or an integer >= 1 for a count; one ConfigError
    lists every bad field, the float fields first.
    """

    fixed_reward: float = 10.0
    tx_reward: float = 2.0
    poisson_rate: float = 0.01
    tx_per_block: int = 10
    mobile_tx_load: int = 10
    edge_overhead: float = 0.5
    min_consumption: float = 0.1

    def __post_init__(self):
        errors = []
        for f, floor, bound in _GAME_FIELDS:
            value = getattr(self, f.name)
            error = type_error(f, value)
            if error is not None or value < floor:
                errors.append(error or f"{f.name} must be {bound}, got {value!r}")
        if errors:
            raise ConfigError(errors)

    @property
    def total_reward(self) -> float:
        """Fixed plus transaction reward for a mined block."""
        return self.fixed_reward + self.tx_reward

    def delay_discount(self, tx_load) -> float:
        """Propagation discount e^(-poisson_rate * tx_load), in [0, 1].

        It underflows to 0 for large exponents (poisson_rate 100 with
        mobile_tx_load 10).  The simulator then records every block as an
        orphan, and no fee buys device power.
        """
        if tx_load < 0:
            raise ValueError(f"tx_load must be >= 0, got {tx_load!r}")
        return math.exp(-self.poisson_rate * tx_load)


# the float fields, then the int fields, each in declaration order, with the floor of each
_GAME_FIELDS = [(f, 1, "an integer >= 1") if f.type == "int" else (f, 0, ">= 0")
                for f in sorted(fields(GameParams), key=lambda f: f.type == "int")]


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
        try:
            return math.fsum(self.powers.tolist())
        except OverflowError:  # finite powers whose sum passes the float range
            raise ValueError("powers must have a finite total, but their sum overflows") from None

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

    share * e^(-poisson_rate * tx_per_block), elementwise; shares outside
    [0, 1] are rejected.
    """
    shares = np.asarray(share, dtype=float)
    if not np.all((shares >= 0) & (shares <= 1)):
        raise ValueError(f"share must lie in [0, 1], got {share!r}")
    return shares * params.delay_discount(params.tx_per_block)


def net_profit(params: GameParams, bill, delay_multiplier=1):
    """Leader's net profit, elementwise: total_reward * e^(-rate * tx * m) - bill - overhead."""
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


def stage1_setup(params: GameParams, fixed_reward=None):
    """(d, a, lo, hi): device discount, reward scale a = (r + tx_reward) * d, fee bracket.

    The bracket is [participation_floor, 100a], or [floor, 10 * floor] where a == 0.
    A 1-D ``fixed_reward`` array stands in for r, making a and hi arrays; else all four
    are floats.  A reward GameParams rejects, or an empty or non-finite bracket, raises
    ConfigError for the first bad instance.
    """
    lo, d = participation_floor(params), params.delay_discount(params.mobile_tx_load)
    r = params.fixed_reward if fixed_reward is None else np.asarray(fixed_reward, dtype=float)
    if fixed_reward is not None:
        bad = ~(np.isfinite(r) & (r >= 0))
        if bad.any():  # GameParams raises its own error for the first bad reward
            GameParams(fixed_reward=float(r[bad][0]))
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, as with Python floats
        a = (r + params.tx_reward) * d
        hi = np.where(a > 0, 100.0 * a, 10.0 * lo)
    ok = np.isfinite(hi) & (hi > lo)
    if not ok.all():
        k = int(np.argmin(ok))
        where = "" if fixed_reward is None else f" at instance {k} (fixed reward {float(r[k])!r})"
        raise ConfigError(f"fee bracket must satisfy 0 < lo < hi after the participation floor "
                          f"{lo:g}; got [{lo:g}, {float(hi.flat[k]):g}]{where}")
    return (d, float(a), lo, float(hi)) if fixed_reward is None else (d, a, lo, hi)
