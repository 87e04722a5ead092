"""The Tullock best response derived symbolically, and the one function that computes it.

Both games ask a follower the same question: the pool's utility
kappa*Y/(X+Y) - u*Y and, divided by its fee times the discount, a miner's
utility x/(x+others) - c*x.  Its maximizer over Y >= 0 is
max(sqrt(kappa*X/u) - X, 0) (Hillman & Riley 1989), which
``uniform.pool_responses`` computes for both: the miners' responses are
``pool_responses(1.0, others, c)``.
"""

import itertools
import sys
import types

import mpmath
import numpy as np
import sympy as sp

from edgeminer import uniform
from edgeminer.uniform import pool_responses

KAPPA, X, U = sp.symbols("kappa X u", positive=True)
Y = sp.Symbol("Y", nonnegative=True)
UTILITY = KAPPA * Y / (X + Y) - U * Y
# 0, -0, subnormal, tiny, huge, inf and nan, for the others' total and for c
EDGES = [0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1.0, 1e300, sys.float_info.max, np.inf,
         -np.inf, np.nan, -1.0]


def _interior():
    """The one root of the first-order condition, sqrt(kappa*X/u) - X."""
    (root,) = sp.solve(sp.Eq(sp.diff(UTILITY, Y), 0), Y)
    return root


def test_first_order_condition_has_one_root():
    assert sp.simplify(_interior() - (sp.sqrt(KAPPA * X / U) - X)) == 0


def test_utility_is_strictly_concave():
    second = sp.diff(UTILITY, Y, 2)
    assert sp.simplify(second + 2 * KAPPA * X / (X + Y) ** 3) == 0
    assert sp.simplify(second).is_negative


def test_clamp_at_zero_is_where_the_pool_stays_out():
    # the root is 0 at kappa = X*u and rises with kappa; below that the utility's
    # slope at Y = 0, kappa/X - u, is <= 0, so by concavity Y = 0 is the maximizer
    root = _interior()
    assert sp.simplify(root.subs(KAPPA, X * U)) == 0
    assert sp.diff(root, KAPPA).is_positive
    assert sp.simplify(sp.diff(UTILITY, Y).subs(Y, 0) - (KAPPA / X - U)) == 0


def test_miner_utility_is_the_pool_utility_at_kappa_one():
    # fee*d*x/(x+others) - u*x over fee*d is x/(x+others) - c*x with c = u/(fee*d)
    fee, d, x, others = sp.symbols("fee d x others", positive=True)
    miner = fee * d * x / (x + others) - U * x
    pool = UTILITY.subs({KAPPA: 1, X: others, U: U / (fee * d), Y: x})
    assert sp.simplify(miner / (fee * d) - pool) == 0


def test_pool_responses_is_the_clamped_root(monkeypatch):
    # run pool_responses' own expression on symbols: sympy's Max and sqrt for numpy's
    monkeypatch.setattr(uniform, "np", types.SimpleNamespace(maximum=sp.Max, sqrt=sp.sqrt))
    traced = pool_responses(KAPPA, X, U)
    assert isinstance(traced, sp.Max)
    (interior,) = set(traced.args) - {sp.Float(0.0)}
    assert set(traced.args) == {sp.Float(0.0), interior}
    assert sp.simplify(interior - _interior()) == 0


def test_pool_responses_at_random_mpmath_points():
    # the float result against the clamped root at 50 digits; the float error
    # is a few ulps of the larger term of sqrt(kappa*X/u) - X
    rng = np.random.default_rng(2024)
    kappa, edge, cost = 10.0 ** rng.uniform(-8, 8, (3, 2000))
    exact = sp.lambdify((KAPPA, X, U), sp.Max(0, _interior()), "mpmath")
    got = pool_responses(kappa, edge, cost)
    assert (got == 0).any() and (got > 0).any()  # both branches
    with mpmath.workdps(50):
        for k, x, u, y in zip(kappa.tolist(), edge.tolist(), cost.tolist(), got.tolist()):
            want = exact(mpmath.mpf(k), mpmath.mpf(x), mpmath.mpf(u))
            scale = mpmath.sqrt(mpmath.mpf(k) * x / u) + x
            assert abs(y - want) <= 4 * sys.float_info.epsilon * scale, (k, x, u)


def test_miner_responses_bit_for_bit():
    # pool_responses(1.0, o, c) against the per-miner form it replaced, on every
    # pair of edge inputs and on 100,000 random pairs from 1e-300 to 1e300; cost
    # coefficients are > 0, so c < 0 is left out (there a 0 result can differ in sign)
    costs = [c for c in EDGES if not c < 0]
    others, c = map(np.array, zip(*itertools.product(EDGES, costs)))
    rng = np.random.default_rng(7)
    others = np.concatenate([others, 10.0 ** rng.uniform(-300, 300, 100_000)])
    c = np.concatenate([c, 10.0 ** rng.uniform(-300, 300, 100_000)])
    with np.errstate(all="ignore"):
        got = pool_responses(1.0, others, c)
        want = np.maximum(np.sqrt(others / c) - others, 0.0)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

