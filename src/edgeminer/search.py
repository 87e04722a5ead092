"""Numerical machinery: fee hill-climb, best-response iteration, scalar oracles.

The two scalar maximizers serve as mutual cross-checks: ``grid_argmax`` is
the exhaustive oracle used by tests, ``golden_section_max`` the test oracle
for the stage-I closed forms of both fee games.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConvergenceError, DegenerateProfileError, PowerProfile, is_integer
from .discriminatory import best_responses

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
    """Settings for the multiplicative fee hill-climb; solve-uniform's climb uses the defaults."""

    initial_fee: float = 1.0
    step_factor: float = 0.05
    tolerance: float = 1e-6
    max_iters: int = 10_000

    def __post_init__(self):
        if not (math.isfinite(self.initial_fee) and self.initial_fee > 0):
            raise ValueError("initial_fee must be a finite positive number")
        if not 0 < self.step_factor < 1:
            raise ValueError("step_factor must lie strictly inside (0, 1)")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be a finite number > 0")
        if not is_integer(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class TraceStep:
    fee: float
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


def multiplicative_fee_search(profit_fn, cfg: SearchConfig):
    """Hill-climb the leader profit with multiplicative fee probes.

    The fee grows by (1 + step_factor) while profit strictly improves.  At
    the first non-improvement the downward direction is probed as well, and
    the step factor is halved until the relative fee change drops below
    ``cfg.tolerance``.  ``profit_fn`` maps a fee to the leader's profit, a
    float; returning -inf outside a bracket keeps the climb inside it.

    Returns (best_fee, SearchTrace).  Raises ConvergenceError with the trace
    attached if the budget runs out (e.g. on a monotone objective).
    """
    best_fee = cfg.initial_fee
    best_profit = profit_fn(best_fee)
    steps = [TraceStep(best_fee, best_profit, True)]
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
            profit = profit_fn(candidate)
            evals += 1
            improved = profit > best_profit
            steps.append(TraceStep(candidate, profit, improved))
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
    DiscriminatoryGame works); ``start`` is a PowerProfile or an array of
    powers, copied.  Each sweep evaluates the best responses BR(x) once, as
    the step BR(x) - x, and uses it twice: the sweep has converged when
    max|BR(x) - x| < tol, so the returned profile is a fixed point to within
    tol; otherwise it takes the damped step x <- x + lam*(BR(x) - x).  The
    undamped sweep (damping 1) oscillates without converging once there are
    four or more miners; damping leaves the fixed points unchanged.
    Iterates stay >= 0 for lam <= 1, since BR(x) >= 0 makes the rounded step
    no less than -x, and > 0 for lam < 1.  A sweep that reaches the all-zero
    profile raises DegenerateProfileError: zero is a fixed point of the
    clamped map but no equilibrium.

    A sweep runs in place, in two buffers made once per call, and allocates
    no array: the others' totals go into the previous iterate's buffer, the
    best responses and then the step into the second, and the next iterate
    into the first, which swaps with x.  The max/min test runs only once a
    tracked miner's step lies inside (-tol, tol), since until then
    max|step| >= tol already; a failed test tracks the miner with the
    largest |step|.  The iterates are those of the plain loop, bit for bit.
    """
    if isinstance(tol, bool) or not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    if not is_integer(max_iters) or max_iters < 1:
        raise ValueError(f"max_iters must be an integer >= 1, got {max_iters!r}")
    x = np.array(start.powers if isinstance(start, PowerProfile) else start, dtype=float)
    c = np.asarray(game.cost_coefficients, dtype=float)
    if x.shape != c.shape:
        raise ValueError(f"start has {x.size} entries, game has {c.size} miners")
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("start profile must be strictly positive")
    lam = min(0.5, 2.0 / c.size) if damping is None else damping
    if isinstance(lam, bool) or not 0 < lam <= 1:
        raise ValueError(f"damping must be a number in (0, 1], got {lam!r}")

    # prev holds the others' totals during a sweep and the last iterate after
    # it.  Every ufunc operand is an array (total 0-d, zeros and lams full),
    # since a scalar one costs a conversion per call; a ufunc's third
    # argument is its output.
    prev, step = np.empty_like(x), np.empty_like(x)
    total, zeros, lams = np.empty(()), np.zeros_like(x), np.full_like(x, lam)
    add, subtract, divide, sqrt, maximum, multiply = (
        np.add, np.subtract, np.divide, np.sqrt, np.maximum, np.multiply)
    add_reduce = np.add.reduce
    j = 0
    for _ in range(max_iters):
        add_reduce(x, out=total)  # x.sum()
        if total[()] == 0:
            raise DegenerateProfileError(
                "best-response dynamics reached the all-zero profile, where every "
                "best response is undefined")
        # step = best_responses(x.sum() - x, c) - x, operation for operation
        subtract(total, x, prev)
        divide(prev, c, step)
        sqrt(step, step)
        subtract(step, prev, step)
        maximum(step, zeros, out=step)
        subtract(step, x, step)
        # exactly max|step| < tol, NaN included, without an abs temporary;
        # |step[j]| >= tol (or NaN) already fails it
        if -tol < step[j] < tol:
            if step.max() < tol and step.min() > -tol:
                return PowerProfile(x)
            j = int(np.abs(step).argmax())
        multiply(step, lams, step)
        add(x, step, prev)
        x, prev = prev, x

    residual = np.max(np.abs(best_responses(x.sum() - x, c) - x))
    raise ConvergenceError(
        f"best-response dynamics did not reach residual {tol:g} in {max_iters} sweeps "
        f"(residual at last iterate {residual:.2g})",
        last=x, prev=prev)


def grid_argmax(f, lo: float, hi: float, step: float):
    """Exhaustive scalar maximizer on the grid lo, lo+step, ...

    Ties break toward the smallest grid point.  Tries a vectorized call
    first and falls back to per-point evaluation.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
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
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    if isinstance(rel_tol, bool) or not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol!r}")
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
