"""Uniform-fee game: best response, certificates, leader objectives, stage I."""

import math

import numpy as np
import pytest

from edgeminer import (
    ConfigError,
    GameParams,
    UniformGame,
    aggregate_miner_utility,
    best_response_uniform,
    grid_argmax,
    leader_delta_utility_uniform,
    optimal_fee_uniform,
    uniqueness_certificate_uniform,
)

from conftest import random_uniform_games, zero_delay_params

# analytic stage-I optimum of 10*(1 - P^-1/2) - P, frozen via 30-digit eval
P_OPT_ANALYTIC = 2.924017738212866
PROFIT_AT_OPT = 1.227946785361402


def _game(edge_power=1.0, fee=4.0, unit_cost=1.0, **params):
    return UniformGame(edge_power, fee, unit_cost, zero_delay_params(**params))


class TestAggregateUtility:
    def test_zero_power_zero_utility(self):
        assert aggregate_miner_utility(_game(), 0.0) == 0.0

    def test_balanced_point(self):
        assert aggregate_miner_utility(_game(), 1.0) == 1.0

    def test_overprovisioned_point(self):
        assert aggregate_miner_utility(_game(), 3.0) == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            aggregate_miner_utility(_game(), -0.5)


class TestBestResponse:
    def test_interior_maximum(self):
        assert best_response_uniform(_game()) == pytest.approx(1.0, abs=1e-12)

    def test_root_of_the_formula(self):
        # kappa/unit_cost equals the edge power, so the interior point is 0
        assert best_response_uniform(_game(fee=1.0, edge_power=1.0)) == 0.0

    def test_clamped_to_zero(self):
        game = _game(fee=1.0, edge_power=2.0)
        # marginal utility at the origin is kappa/X - unit_cost = -0.5
        assert best_response_uniform(game) == 0.0

    def test_matches_grid_search(self):
        game = _game()
        argmax, _ = grid_argmax(lambda y: aggregate_miner_utility(game, y),
                                0.0, 10.0, 1e-4)
        assert abs(best_response_uniform(game) - argmax) <= 1e-3

    def test_oracle_agreement_random_instances(self):
        for game in random_uniform_games(25, seed=42):
            hi = game.kappa / game.unit_cost  # utility is negative beyond this
            argmax, _ = grid_argmax(lambda y: aggregate_miner_utility(game, y),
                                    0.0, hi + 1.0, 1e-4)
            assert abs(best_response_uniform(game) - argmax) <= 1e-3

    def test_first_derivative_vanishes_interior(self):
        game = _game()
        y_star = best_response_uniform(game)
        h = 1e-5
        derivative = (aggregate_miner_utility(game, y_star + h)
                      - aggregate_miner_utility(game, y_star - h)) / (2 * h)
        assert abs(derivative) < 1e-6

    def test_concavity_sampled(self):
        game = _game(fee=5.0, edge_power=0.8)
        h = 0.05
        for y in np.linspace(h, 8.0, 60):
            second = (aggregate_miner_utility(game, y + h)
                      - 2.0 * aggregate_miner_utility(game, y)
                      + aggregate_miner_utility(game, y - h))
            assert second <= 1e-12


class TestUniquenessCertificate:
    def test_certified_instance(self):
        cert = uniqueness_certificate_uniform(_game(edge_power=0.5))
        assert cert.certified and cert.below_quarter_bound and cert.below_positivity_bound
        assert cert.quarter_bound == pytest.approx(1.0)

    def test_uncertified_instance(self):
        cert = uniqueness_certificate_uniform(_game(edge_power=1.5))
        assert not cert.certified
        assert cert.below_positivity_bound  # 1.5 < 4 still holds

    def test_tiny_edge_power_always_certified(self):
        assert uniqueness_certificate_uniform(_game(edge_power=1e-9)).certified

    def test_detail_reports_both_bounds(self):
        cert = uniqueness_certificate_uniform(_game(edge_power=5.0))
        assert not cert.below_quarter_bound
        assert not cert.below_positivity_bound
        assert cert.positivity_bound == pytest.approx(4.0)


class TestStandardFunctionAxioms:
    """Response map F(X) = sqrt(kappa*X/unit_cost) - X on the certified region."""

    @staticmethod
    def _response(game, x):
        return math.sqrt(game.kappa * x / game.unit_cost) - x

    def test_axioms_inside_certified_region(self):
        rng = np.random.default_rng(5)
        for game in random_uniform_games(40, seed=9):
            bound = game.kappa / (4.0 * game.unit_cost)
            xs = np.sort(rng.uniform(1e-6, bound * 0.999, 8))
            values = [self._response(game, x) for x in xs]
            assert all(v > 0.0 for v in values)  # positivity
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))  # monotone
            for lam in rng.uniform(1.0 + 1e-6, 4.0, 4):  # scalability
                for x in xs[:3]:
                    assert lam * self._response(game, x) > self._response(game, lam * x)

    def test_positivity_fails_outside_certified_region(self):
        game = _game()
        positivity_bound = game.kappa / game.unit_cost
        x = 1.5 * positivity_bound
        assert self._response(game, x) < 0.0


class TestLeaderObjective:
    def test_simplified_value(self):
        assert leader_delta_utility_uniform(_game(), "simplified") == pytest.approx(5.0)

    def test_full_value(self):
        assert leader_delta_utility_uniform(_game(), "full") == pytest.approx(1.0)

    def test_simplified_zero_at_boundary(self):
        # edge_power * unit_cost == kappa makes the sqrt term equal to 1
        game = _game(edge_power=4.0)
        assert leader_delta_utility_uniform(game, "simplified") == pytest.approx(0.0)

    def test_full_pays_fee_on_nonparticipation(self):
        game = _game(fee=1.0, edge_power=2.0)
        assert best_response_uniform(game) == 0.0
        assert leader_delta_utility_uniform(game, "full") == pytest.approx(-1.0)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            leader_delta_utility_uniform(_game(), "other")

    def test_simplified_monotone_concave_in_fee(self):
        params = zero_delay_params()
        fees = np.linspace(0.5, 30.0, 200)
        values = [leader_delta_utility_uniform(UniformGame(1.0, p, 1.0, params),
                                               "simplified") for p in fees]
        first = np.diff(values)
        assert np.all(first > 0.0)
        assert np.all(np.diff(first) < 0.0)


class TestOptimalFee:
    def test_analytic_optimum(self):
        fee, profit = optimal_fee_uniform(1.0, 1.0, zero_delay_params(),
                                          objective="full", bracket=(0.1, 50.0))
        assert fee == pytest.approx(P_OPT_ANALYTIC, abs=1e-6)
        assert profit == pytest.approx(PROFIT_AT_OPT, abs=1e-9)

    def test_interior_stationarity(self):
        params = zero_delay_params()
        fee, profit = optimal_fee_uniform(1.0, 1.0, params, objective="full")
        for delta in (1e-3, -1e-3):
            game = UniformGame(1.0, fee * (1.0 + delta), 1.0, params)
            assert profit >= leader_delta_utility_uniform(game, "full")

    def test_interior_optimum_satisfies_stationarity_identity(self):
        # (a/2) * sqrt(X * unit_cost * e^(rate*delay*load)) * fee^(-3/2) == 1
        params = GameParams(fixed_reward=9.0, tx_reward=3.0, poisson_rate=0.01,
                            delay_factor=1.0, mobile_tx_load=10, min_consumption=0.1)
        edge_power, unit_cost = 5.0, 0.05
        fee, _ = optimal_fee_uniform(edge_power, unit_cost, params, objective="full")
        a = 12.0 * params.delay_discount(10)
        growth = 1.0 / params.delay_discount(10)
        residual = 0.5 * a * math.sqrt(edge_power * unit_cost * growth) * fee ** -1.5
        assert residual == pytest.approx(1.0, abs=1e-6)

    def test_simplified_runs_to_bracket_top(self):
        fee, _ = optimal_fee_uniform(1.0, 1.0, zero_delay_params(),
                                     objective="simplified", bracket=(0.5, 20.0))
        assert fee == 20.0

    def test_no_reward_prefers_cheapest_fee(self):
        params = zero_delay_params(fixed_reward=0.0, tx_reward=0.0)
        fee, profit = optimal_fee_uniform(1.0, 1.0, params,
                                          objective="full", bracket=(0.5, 5.0))
        assert fee == 0.5
        assert profit <= 0.0

    def test_inverted_bracket_rejected(self):
        with pytest.raises(ConfigError):
            optimal_fee_uniform(1.0, 1.0, zero_delay_params(), bracket=(5.0, 1.0))

    def test_participation_floor_applies(self):
        params = zero_delay_params(min_consumption=2.0)
        fee, _ = optimal_fee_uniform(1.0, 1.0, params, objective="full",
                                     bracket=(0.01, 50.0))
        assert fee >= 2.0


class TestSolveUniform:
    def test_result_fields_consistent(self):
        # X = 0.5, kappa = 4, unit cost 1, a = 10: interior Y* = sqrt(2) - 1/2
        game = _game(edge_power=0.5)
        y_star = best_response_uniform(game)
        assert y_star == pytest.approx(math.sqrt(2.0) - 0.5)
        assert uniqueness_certificate_uniform(game).certified
        simplified = leader_delta_utility_uniform(game, "simplified")
        assert simplified == pytest.approx(10.0 * y_star / (0.5 + y_star))
        assert leader_delta_utility_uniform(game, "full") == pytest.approx(simplified - 4.0)

    def test_repeated_response_is_constant_when_certified(self):
        # aggregate response depends only on the edge power, so re-solving
        # from the equilibrium reproduces it exactly
        game = _game(edge_power=0.5)
        assert uniqueness_certificate_uniform(game).certified
        first = best_response_uniform(game)
        assert best_response_uniform(game) == first
