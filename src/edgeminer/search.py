"""Numerical machinery: fee hill-climb, best-response iteration, scalar oracles.

The two scalar maximizers serve as mutual cross-checks: ``grid_argmax`` is
the exhaustive oracle used by tests, ``golden_section_max`` the fast path
for concave leader objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConvergenceError, PowerProfile

__all__ = [
    "SearchConfig",
    "SearchTrace",
    "best_response_dynamics",
    "golden_section_max",
    "grid_argmax",
    "multiplicative_fee_search",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchConfig:
    """Settings for the multiplicative fee hill-climb."""

    initial_fee: float
    step_factor: float = 0.05
    tolerance: float = 1e-6
    max_iters: int = 10_000

    def __post_init__(self):
        if not (math.isfinite(self.initial_fee) and self.initial_fee > 0):
            raise ValueError("initial_fee must be a finite positive number")
        if not 0 < self.step_factor < 1:
            raise ValueError("step_factor must lie strictly inside (0, 1)")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class TraceStep:
    fee: float
    follower_power_total: float
    leader_profit: float
    improved: bool


@dataclass(frozen=True)
class SearchTrace:
    steps: list = field(default_factory=list)
    terminal_reason: str = ""

    @property
    def fees(self) -> np.ndarray:
        return np.array([s.fee for s in self.steps])

    @property
    def accepted_profits(self) -> np.ndarray:
        return np.array([s.leader_profit for s in self.steps if s.improved])


def _eval_profit(profit_fn, fee: float):
    out = profit_fn(fee)
    if isinstance(out, tuple):
        return float(out[0]), float(out[1])
    return float(out), float("nan")


def multiplicative_fee_search(profit_fn, cfg: SearchConfig):
    """Hill-climb the leader profit with multiplicative fee probes.

    The fee grows by (1 + step_factor) while profit strictly improves.  At
    the first non-improvement the downward direction is probed as well, and
    the step factor is halved until the relative fee change drops below
    ``cfg.tolerance``.  ``profit_fn`` may return either a profit or a
    (profit, follower_power) pair; the follower power only feeds the trace.

    Returns (best_fee, SearchTrace).  Raises ConvergenceError with the trace
    attached if the budget runs out (e.g. on a monotone objective).
    """
    best_fee = cfg.initial_fee
    best_profit, power = _eval_profit(profit_fn, best_fee)
    steps = [TraceStep(best_fee, power, best_profit, True)]
    evals = 1
    theta = cfg.step_factor

    while theta >= cfg.tolerance:
        moved = False
        for candidate in (best_fee * (1.0 + theta), best_fee / (1.0 + theta)):
            if evals >= cfg.max_iters:
                trace = SearchTrace(steps, "max_iters exceeded")
                raise ConvergenceError(
                    f"fee search did not terminate within {cfg.max_iters} evaluations "
                    f"(last fee {best_fee:.6g}); objective may be unbounded",
                    last=best_fee, trace=trace)
            profit, power = _eval_profit(profit_fn, candidate)
            evals += 1
            improved = profit > best_profit
            steps.append(TraceStep(candidate, power, profit, improved))
            if improved:
                best_fee, best_profit = candidate, profit
                moved = True
                break
        if not moved:
            theta *= 0.5

    return best_fee, SearchTrace(steps, "fee step below tolerance")


def best_response_dynamics(game, start, tol: float = 1e-9, max_iters: int = 10_000,
                           damping: float | None = None) -> PowerProfile:
    """Iterate simultaneous best responses of all miners to a fixed point.

    ``game`` needs ``cost_coefficients`` and ``n_miners`` (a
    DiscriminatoryGame works).  Updates are damped simultaneous sweeps,
    x <- (1-lam)x + lam*BR(x); the undamped sweep oscillates without
    converging once there are four or more miners, and damping keeps every
    iterate strictly positive.  Fixed points are unchanged by damping.
    Converged means the best-response residual max|BR(x) - x| < tol, so the
    returned profile is a fixed point to within tol.
    """
    x = np.asarray(start, dtype=float).copy()
    if isinstance(start, PowerProfile):
        x = start.powers.copy()
    c = np.asarray(game.cost_coefficients, dtype=float)
    if x.shape != c.shape:
        raise ValueError(f"start has {x.size} entries, game has {c.size} miners")
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("start profile must be strictly positive")
    lam = min(0.5, 2.0 / c.size) if damping is None else damping
    if not 0 < lam <= 1:
        raise ValueError("damping must lie in (0, 1]")

    prev = x.copy()
    for _ in range(max_iters):
        others = x.sum() - x
        response = np.maximum(np.sqrt(np.maximum(others, 0.0) / c) - others, 0.0)
        if np.max(np.abs(response - x)) < tol:
            return PowerProfile(x)
        prev = x
        x = (1.0 - lam) * x + lam * response

    raise ConvergenceError(
        f"best-response dynamics did not reach residual {tol:g} in {max_iters} sweeps",
        last=x, prev=prev)


def grid_argmax(f, lo: float, hi: float, step: float):
    """Exhaustive scalar maximizer on the grid lo, lo+step, ...

    Ties break toward the smallest grid point.  Tries a vectorized call
    first and falls back to per-point evaluation.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if step <= 0:
        raise ValueError("step must be > 0")
    n = int(math.floor((hi - lo) / step + 1e-9))
    xs = lo + step * np.arange(n + 1)
    try:
        ys = np.asarray(f(xs), dtype=float)
        if ys.shape != xs.shape:
            raise TypeError
    except Exception:
        ys = np.array([float(f(x)) for x in xs])
    idx = int(np.argmax(ys))
    return float(xs[idx]), float(ys[idx])


def golden_section_max(f, lo: float, hi: float, rel_tol: float = 1e-9):
    """Golden-section maximizer for a unimodal f on [lo, hi].

    Shrinks the bracket until its width is below rel_tol * (hi - lo), then
    returns the best of the final midpoint and the original endpoints, so
    monotone objectives land exactly on a boundary.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be > 0")
    a, b = float(lo), float(hi)
    width = b - a
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * width:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    best_x, best_f = mid, f(mid)
    for x in (lo, hi):
        fx = f(x)
        if fx > best_f:
            best_x, best_f = x, fx
    return float(best_x), float(best_f)
