"""Fee hill-climb, best-response dynamics and the search oracles."""

import numpy as np
import pytest

from edgeminer import (
    ConvergenceError,
    DiscriminatoryGame,
    SearchConfig,
    best_response_dynamics,
    golden_section_max,
    grid_argmax,
    multiplicative_fee_search,
    nash_equilibrium_closed_form,
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


class TestMultiplicativeFeeSearch:
    def test_converges_to_analytic_optimum(self):
        cfg = SearchConfig(initial_fee=0.5, step_factor=0.1, tolerance=1e-6)
        fee, trace = multiplicative_fee_search(leader_profit, cfg)
        assert abs(fee - P_OPT_ANALYTIC) <= 1e-3
        assert trace.terminal_reason == "fee step below tolerance"

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
        accepted = trace.accepted_profits
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
        assert trace_a.fees.tolist() == trace_b.fees.tolist()


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
