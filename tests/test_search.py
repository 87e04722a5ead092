"""Fee hill-climb, best-response dynamics and the search oracles."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeminer import (
    ConvergenceError,
    DegenerateProfileError,
    DiscriminatoryGame,
    GameParams,
    PowerProfile,
    SearchConfig,
    best_response_dynamics,
    golden_section_max,
    grid_argmax,
    multiplicative_fee_search,
    nash_equilibrium_closed_form,
    pool_responses,
)

from conftest import random_feasible_disc_games, zero_delay_params

P_OPT_ANALYTIC = 2.924017738212866


def leader_profit(fee):
    """Concave leader profit with analytic optimum at 5^(2/3)."""
    return 10.0 * (1.0 - fee ** -0.5) - fee


class TestSearchConfig:
    def test_step_factor_range_enforced(self):
        with pytest.raises(ValueError):
            SearchConfig(initial_fee=1.0, step_factor=1.5)
        with pytest.raises(ValueError):
            SearchConfig(initial_fee=1.0, step_factor=0.0)

    def test_positive_fee_required(self):
        with pytest.raises(ValueError):
            SearchConfig(initial_fee=-1.0)

    # SearchConfig is the one declaration of the climb's settings, so it alone
    # keeps a non-finite start, step or tolerance out of the climb
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")],
                             ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", ["initial_fee", "step_factor", "tolerance"])
    def test_nonfinite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must"):
            SearchConfig(**{name: value})

    # a bool is not a real number and a str none at all: each gets the shared type error
    @pytest.mark.parametrize("value", [True, False, "1"], ids=repr)
    @pytest.mark.parametrize("name", ["initial_fee", "step_factor", "tolerance"])
    def test_bool_or_str_rejected_by_name(self, name, value):
        message = f"{name} must be finite, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SearchConfig(**{name: value})

    @pytest.mark.parametrize("max_iters", [True, False, 2.5, 10.0, 0, -3],
                             ids=["true", "false", "fraction", "float", "zero", "negative"])
    def test_invalid_max_iters_rejected(self, max_iters):
        with pytest.raises(ValueError, match="^max_iters must be an integer >= 1, got "):
            SearchConfig(max_iters=max_iters)

    def test_numpy_integer_max_iters_accepted(self):
        assert SearchConfig(max_iters=np.int64(7)).max_iters == 7


class TestMultiplicativeFeeSearch:
    def test_converges_to_analytic_optimum(self):
        cfg = SearchConfig(initial_fee=0.5, step_factor=0.1, tolerance=1e-6)
        fee, trace = multiplicative_fee_search(leader_profit, cfg)
        assert abs(fee - P_OPT_ANALYTIC) <= 1e-3

    def test_monotone_objective_exhausts_budget(self):
        cfg = SearchConfig(initial_fee=1.0, max_iters=500)
        with pytest.raises(ConvergenceError) as err:
            multiplicative_fee_search(lambda fee: fee, cfg)
        assert err.value.trace is not None
        assert len(err.value.trace.steps) <= 500

    def test_constant_objective_returns_start(self):
        cfg = SearchConfig(initial_fee=2.0)
        fee, _ = multiplicative_fee_search(lambda fee: 7.0, cfg)
        assert fee == 2.0

    def test_start_above_optimum(self):
        cfg = SearchConfig(initial_fee=20.0, step_factor=0.1)
        fee, _ = multiplicative_fee_search(leader_profit, cfg)
        assert abs(fee - P_OPT_ANALYTIC) <= 1e-3

    def test_accepted_profits_strictly_increase(self):
        cfg = SearchConfig(initial_fee=0.5, step_factor=0.1)
        _, trace = multiplicative_fee_search(leader_profit, cfg)
        accepted = [s.leader_profit for s in trace.steps if s.improved]
        assert np.all(np.diff(accepted) > 0.0)

    def test_fees_increase_while_improving(self):
        cfg = SearchConfig(initial_fee=0.5, step_factor=0.1)
        _, trace = multiplicative_fee_search(leader_profit, cfg)
        climbing = [s.fee for s in trace.steps if s.improved]
        first_decline = next(i for i, s in enumerate(trace.steps) if not s.improved)
        assert np.all(np.diff(climbing[:first_decline]) > 0.0)

    def test_deterministic(self):
        cfg = SearchConfig(initial_fee=0.5, step_factor=0.1)
        fee_a, trace_a = multiplicative_fee_search(leader_profit, cfg)
        fee_b, trace_b = multiplicative_fee_search(leader_profit, cfg)
        assert fee_a == fee_b
        assert trace_a.steps == trace_b.steps

    # recorded values: solve-uniform's hill-climb is checked against the closed form,
    # so the climb keeps its evaluation order, its steps and its message bit for bit
    STEPS_SHA256 = "7614f211af8a9501d1cd0f7d126c97884cbec8936736b759435384da07190f73"

    def test_steps_pinned(self):
        cfg = SearchConfig(initial_fee=0.5, step_factor=0.1, tolerance=1e-6)
        fee, trace = multiplicative_fee_search(leader_profit, cfg)
        assert fee == 2.9240165565937897
        steps = [(s.fee, s.leader_profit, s.improved) for s in trace.steps]
        assert len(steps) == 71
        assert steps[1] == (0.55, -4.033997249264841, True)
        assert steps[-1] == (2.9240120949054123, 1.2279467853532329, False)
        text = "\n".join(f"{fee.hex()} {profit.hex()} {improved}"
                         for fee, profit, improved in steps)
        assert hashlib.sha256(text.encode()).hexdigest() == self.STEPS_SHA256

    def test_budget_error_pinned(self):
        with pytest.raises(ConvergenceError) as err:
            multiplicative_fee_search(lambda fee: fee, SearchConfig(initial_fee=1.0, max_iters=200))
        assert str(err.value) == ("fee search did not terminate within 200 evaluations "
                                  "(last fee 16469.1); objective may be unbounded")
        assert err.value.last == 16469.124585866793
        assert len(err.value.trace.steps) == 200


def _reference_brd(game, start, tol=1e-9, max_iters=10_000, damping=None):
    """Damped BRD as (1 - lam) x + lam BR(x), residual by np.max(np.abs(.)): the oracle."""
    x = np.asarray(start, dtype=float).copy()
    c = np.asarray(game.cost_coefficients, dtype=float)
    lam = min(0.5, 2.0 / c.size) if damping is None else damping
    prev = x.copy()
    for _ in range(max_iters):
        response = pool_responses(1.0, x.sum() - x, c)
        if np.max(np.abs(response - x)) < tol:
            return x
        prev = x
        x = (1.0 - lam) * x + lam * response
    raise ConvergenceError("reference loop ran out of sweeps", last=x, prev=prev)


def _head_brd(game, start, tol: float = 1e-9, max_iters: int = 10_000,
              damping: float | None = None) -> PowerProfile:
    """The plain allocating loop, word for word: best_response_dynamics matches it bit for bit."""
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
        total = x.sum()
        if total == 0:
            raise DegenerateProfileError(
                "best-response dynamics reached the all-zero profile, where every "
                "best response is undefined")
        step = pool_responses(1.0, total - x, c)
        step -= x
        # exactly max|step| < tol, NaN included, without an abs temporary
        if step.max() < tol and step.min() > -tol:
            return PowerProfile(x)
        step *= lam
        prev, x = x, x + step

    residual = np.max(np.abs(pool_responses(1.0, x.sum() - x, c) - x))
    raise ConvergenceError(
        f"best-response dynamics did not reach residual {tol:g} in {max_iters} sweeps "
        f"(residual at last iterate {residual:.2g})",
        last=x, prev=prev)


def _assert_same_run(game, start, **kwargs):
    """The in-place sweep ends as _head_brd does, with bit-identical arrays; returns its outcome."""
    head, head_err = _outcome(lambda: _head_brd(game, start, **kwargs))
    new, new_err = _outcome(lambda: best_response_dynamics(game, start, **kwargs))
    assert type(new_err) is type(head_err)
    if head is not None:
        assert np.array_equal(new.powers, head.powers)
    else:
        assert str(new_err) == str(head_err)
    if isinstance(head_err, ConvergenceError):
        assert np.array_equal(new_err.last, head_err.last)
        assert np.array_equal(new_err.prev, head_err.prev)
    return new, new_err


def _residual(game, x):
    responses = pool_responses(1.0, x.sum() - x, game.cost_coefficients)
    return float(np.max(np.abs(responses - x)))


def _outcome(run):
    try:
        return run(), None
    except (ConvergenceError, DegenerateProfileError) as exc:
        return None, exc


# 2-12 miners with fees spread over 1-10, so that some miners drop out
_brd_cases = st.integers(2, 12).flatmap(lambda m: st.tuples(
    st.lists(st.floats(1.0, 10.0), min_size=m, max_size=m),
    st.lists(st.floats(0.01, 10.0), min_size=m, max_size=m)))


class TestBestResponseDynamics:
    def _game(self, fees):
        return DiscriminatoryGame(np.asarray(fees, float), 1.0, zero_delay_params())

    def test_converges_to_closed_form(self):
        game = self._game([4, 8])
        result = best_response_dynamics(game, [1.0, 1.0], tol=1e-9)
        np.testing.assert_allclose(result.powers, [8 / 9, 16 / 9], atol=1e-6)

    def test_fixed_point_returns_immediately(self):
        game = self._game([4, 8])
        start = nash_equilibrium_closed_form(game).powers
        result = best_response_dynamics(game, start, tol=1e-9, max_iters=1)
        np.testing.assert_allclose(result.powers, start)

    def test_basin_robustness(self):
        game = self._game([4, 4])
        result = best_response_dynamics(game, [0.01, 5.0], tol=1e-9)
        np.testing.assert_allclose(result.powers, [1.0, 1.0], atol=1e-6)

    def test_matches_closed_form_on_random_instances(self):
        rng = np.random.default_rng(77)
        for game in random_feasible_disc_games(100, seed=99):
            expected = nash_equilibrium_closed_form(game).powers
            start = expected * rng.uniform(0.2, 3.0, expected.size)
            result = best_response_dynamics(game, start, tol=1e-8)
            np.testing.assert_allclose(result.powers, expected, atol=1e-6)

    def test_undamped_sweep_fails_for_many_miners(self):
        # the undamped simultaneous sweep oscillates once M >= 4; this is
        # why the default update is damped
        game = self._game([4.0] * 5)
        start = nash_equilibrium_closed_form(game).powers * 1.01
        with pytest.raises(ConvergenceError) as err:
            best_response_dynamics(game, start, tol=1e-10, max_iters=2000, damping=1.0)
        assert err.value.last is not None and err.value.prev is not None

    def test_nonpositive_start_rejected(self):
        with pytest.raises(ValueError):
            best_response_dynamics(self._game([4, 4]), [0.0, 1.0])

    def test_all_zero_profile_is_not_an_equilibrium(self):
        # both others exceed 1/c_i, so the undamped sweep maps the start to 0,
        # a fixed point of the clamped map; the closed form is [0.988, 1.235]
        game = DiscriminatoryGame([4, 5], 1.0, GameParams(poisson_rate=0))
        assert np.all(nash_equilibrium_closed_form(game).powers > 0.9)
        with pytest.raises(DegenerateProfileError, match="all-zero profile"):
            best_response_dynamics(game, [5, 5], damping=1.0)

    def test_bench_large_input_fails_and_reports_its_residual(self):
        # the bench's brd-M1000 input, a kept failure there: if it ever
        # converges, that bench operation's fault predicate must change with it
        fees = 10.0 * (1.0 + 0.0004 * np.linspace(-1.0, 1.0, 1000))
        game = DiscriminatoryGame(fees, 0.005)
        with pytest.raises(ConvergenceError) as err:
            best_response_dynamics(game, np.ones(1000))
        found = re.fullmatch(r"best-response dynamics did not reach residual 1e-09 in 10000 "
                             r"sweeps \(residual at last iterate (\S+)\)", str(err.value))
        assert found is not None, str(err.value)
        residual = _residual(game, err.value.last)
        assert residual >= 1e-9
        assert found.group(1) == f"{residual:.2g}"

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_brd_cases, st.sampled_from([None, 0.3, 1.0]), st.sampled_from([1, 50, 10_000]))
    def test_matches_reference_loop(self, case, damping, max_iters):
        fees, start = case
        game = self._game(fees)
        tol = 1e-9
        ref, ref_err = _outcome(lambda: _reference_brd(game, start, tol, max_iters, damping))
        new, new_err = _outcome(lambda: best_response_dynamics(game, start, tol, max_iters,
                                                               damping))
        if ref is not None and not np.any(ref):
            assert isinstance(new_err, DegenerateProfileError)
            return
        assert (new is None) == (ref is None)
        if ref is not None:
            np.testing.assert_allclose(new.powers, ref, rtol=0, atol=1e-12 * np.max(ref))
            assert _residual(game, new.powers) < tol
            assert new.powers.sum() > 0
            return
        assert isinstance(ref_err, ConvergenceError) and isinstance(new_err, ConvergenceError)
        for x in (new_err.last, new_err.prev):
            assert np.all(np.isfinite(x)) and np.all(x >= 0)
            if damping != 1.0:
                assert np.all(x > 0)

    def test_profile_start_equals_array_start_and_is_not_aliased(self):
        game = self._game([4, 8])
        start = PowerProfile(np.array([1.0, 1.0]))
        from_profile = best_response_dynamics(game, start)
        assert np.array_equal(from_profile.powers, best_response_dynamics(game, [1.0, 1.0]).powers)
        assert not np.shares_memory(from_profile.powers, start.powers)
        assert np.array_equal(start.powers, [1.0, 1.0])
        with pytest.raises(ConvergenceError) as err:
            best_response_dynamics(game, start, max_iters=1)
        for x in (err.value.last, err.value.prev):
            assert not np.shares_memory(x, start.powers)
        assert np.array_equal(err.value.prev, [1.0, 1.0])

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, True],
                             ids=["nan", "inf", "negative", "zero", "bool"])
    def test_invalid_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="^tol must be a finite number > 0"):
            best_response_dynamics(self._game([4, 8]), [1.0, 1.0], tol=tol)

    @pytest.mark.parametrize("max_iters", [0, -1, 2.0, True, "10"],
                             ids=["zero", "negative", "float", "bool", "str"])
    def test_invalid_max_iters_rejected(self, max_iters):
        with pytest.raises(ValueError, match="^max_iters must be an integer >= 1"):
            best_response_dynamics(self._game([4, 8]), [1.0, 1.0], max_iters=max_iters)

    @pytest.mark.parametrize("damping", [True, False, 0.0, 1.5, float("nan")],
                             ids=["true", "false", "zero", "above-one", "nan"])
    def test_invalid_damping_rejected(self, damping):
        # True would run as lam = 1, the undamped sweep
        with pytest.raises(ValueError, match="^damping must be a number in"):
            best_response_dynamics(self._game([4, 8]), [1.0, 1.0], damping=damping)

    def test_numpy_integer_max_iters_accepted(self):
        result = best_response_dynamics(self._game([4, 8]), [1.0, 1.0], max_iters=np.int64(500))
        np.testing.assert_allclose(result.powers, [8 / 9, 16 / 9], atol=1e-6)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_brd_cases, st.sampled_from([None, 0.3, 1.0]), st.sampled_from([1, 50, 10_000]))
    def test_bit_identical_to_allocating_loop(self, case, damping, max_iters):
        fees, start = case
        _assert_same_run(self._game(fees), start, max_iters=max_iters, damping=damping)

    def test_bench_large_input_bit_identical(self):
        fees = 10.0 * (1.0 + 0.0004 * np.linspace(-1.0, 1.0, 1000))
        _, err = _assert_same_run(DiscriminatoryGame(fees, 0.005), np.ones(1000))
        assert isinstance(err, ConvergenceError)

    def test_near_equal_game_bit_identical(self):
        # 100 miners with fees within 0.4% of each other, as in the bench
        rng = np.random.default_rng(5)
        game = DiscriminatoryGame(10.0 * (1.0 + 0.004 * rng.uniform(-1.0, 1.0, 100)), 0.005)
        result, err = _assert_same_run(game, rng.uniform(0.5, 2.0, 100))
        assert err is None
        np.testing.assert_allclose(result.powers, nash_equilibrium_closed_form(game).powers,
                                   rtol=1e-6)

    def test_all_zero_profile_error_identical(self):
        game = DiscriminatoryGame([4, 5], 1.0, GameParams(poisson_rate=0))
        _, err = _assert_same_run(game, [5, 5], damping=1.0)
        assert isinstance(err, DegenerateProfileError)

    def test_dispersed_game_bit_identical(self):
        # fees spread over 1-30: the costliest miners sit at the clamp at 0
        game = self._game(np.geomspace(1.0, 30.0, 12))
        closed = nash_equilibrium_closed_form(game).powers
        assert np.count_nonzero(closed == 0) >= 3
        result, err = _assert_same_run(game, np.ones(12))
        assert err is None
        assert np.all(result.powers[closed == 0] < 1e-6)


class TestGridArgmax:
    def test_parabola(self):
        x, value = grid_argmax(lambda x: -(x - 1.0) ** 2, 0.0, 2.0, 1e-3)
        assert abs(x - 1.0) <= 1e-3
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_constant_tie_breaks_low(self):
        x, _ = grid_argmax(lambda x: 0.0 * x, 0.5, 2.0, 0.1)
        assert x == 0.5

    def test_matches_aggregate_best_response(self):
        # kappa=4, edge power 1, unit cost 1: argmax at 1
        x, _ = grid_argmax(lambda y: 4.0 * y / (1.0 + y) - y, 0.0, 10.0, 1e-3)
        assert abs(x - 1.0) <= 1e-3

    def test_scalar_only_function_falls_back(self):
        def f(x):
            if isinstance(x, np.ndarray):
                raise TypeError("scalar only")
            return -(x - 0.4) ** 2

        x, _ = grid_argmax(f, 0.0, 1.0, 1e-2)
        assert abs(x - 0.4) <= 1e-2

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            grid_argmax(lambda x: x, 2.0, 1.0, 0.1)

    @pytest.mark.parametrize("step", [float("inf"), float("nan"), 0.0, -0.1],
                             ids=["inf", "nan", "zero", "negative"])
    def test_invalid_step_rejected(self, step):
        # step inf used to return (nan, nan), from lo + inf * 0
        with pytest.raises(ValueError, match="^step must be finite and > 0"):
            grid_argmax(lambda x: -(x - 0.9) ** 2, 0.0, 1.0, step)

    @pytest.mark.parametrize("lo, hi", [(0.0, float("inf")), (float("-inf"), 1.0),
                                        (float("nan"), 1.0)], ids=["hi-inf", "lo-inf", "lo-nan"])
    def test_nonfinite_interval_rejected(self, lo, hi):
        # an infinite end used to raise OverflowError from the grid size
        with pytest.raises(ValueError, match="^need finite lo < hi"):
            grid_argmax(lambda x: -(x - 0.9) ** 2, lo, hi, 0.1)


class TestGoldenSectionMax:
    def test_analytic_optimum(self):
        x, _ = golden_section_max(leader_profit, 0.1, 50.0, rel_tol=1e-9)
        assert abs(x - P_OPT_ANALYTIC) <= 1e-6

    def test_linear_returns_boundary_exactly(self):
        x, value = golden_section_max(lambda t: t, 0.0, 1.0)
        assert x == 1.0 and value == 1.0

    def test_monotone_fee_objective_hits_top(self):
        # simplified leader objective grows with the fee
        x, _ = golden_section_max(lambda p: 10.0 * (1.0 - (1.0 / p) ** 0.5), 0.5, 20.0)
        assert x == 20.0

    def test_agrees_with_grid_on_concave_functions(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            peak = rng.uniform(0.5, 4.5)
            scale = rng.uniform(0.5, 3.0)
            f = lambda x, p=peak, s=scale: -s * (x - p) ** 2
            gx, _ = golden_section_max(f, 0.0, 5.0, rel_tol=1e-9)
            bx, _ = grid_argmax(f, 0.0, 5.0, 1e-4)
            assert abs(gx - bx) <= 1e-4 + 5.0 * 1e-9

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            golden_section_max(lambda x: x, 1.0, 1.0)

    @pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), True, 0.0, -1e-9],
                             ids=["nan", "inf", "bool", "zero", "negative"])
    def test_invalid_rel_tol_rejected(self, rel_tol):
        # nan, inf and True used to skip the search and return the top, (1.0, -0.01)
        with pytest.raises(ValueError, match="^rel_tol must be finite and > 0"):
            golden_section_max(lambda x: -(x - 0.9) ** 2, 0.0, 1.0, rel_tol=rel_tol)

    @pytest.mark.parametrize("lo, hi", [(0.0, float("inf")), (float("-inf"), 1.0),
                                        (float("nan"), 1.0), (0.0, float("nan"))],
                             ids=["hi-inf", "lo-inf", "lo-nan", "hi-nan"])
    def test_nonfinite_bracket_rejected(self, lo, hi):
        # hi = inf used to return lo, (0.0, -0.81), without a search
        with pytest.raises(ValueError, match="^need finite lo < hi"):
            golden_section_max(lambda x: -(x - 0.9) ** 2, lo, hi)
