"""Uniform-fee game: best response, certificates, leader objectives, stage I."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeminer import (
    ConfigError,
    GameParams,
    aggregate_miner_utility,
    cli,
    grid_argmax,
    leader_delta_utility_uniform,
    leader_reward_scale,
    optimal_fee_uniform,
    optimal_fees_uniform,
    pool_responses,
    uniform,
    uniqueness_certificate_uniform,
)

from edgeminer.core import stage1_setup
from edgeminer.discriminatory import optimal_fees_discriminatory
from edgeminer.experiments import FEE_SEARCHES, KIND_TABLE, build_config

from conftest import (
    UniformInstance,
    assert_stage1_optimum,
    random_uniform_games,
    zero_delay_params,
)

# analytic stage-I optimum of 10*(1 - P^-1/2) - P, frozen via 30-digit eval
P_OPT_ANALYTIC = 2.924017738212866
PROFIT_AT_OPT = 1.227946785361402


def _game(edge_power=1.0, fee=4.0, unit_cost=1.0, **params):
    return UniformInstance(edge_power, fee, unit_cost, zero_delay_params(**params))


class TestAggregateUtility:
    def test_zero_power_zero_utility(self):
        assert _game().utility(0.0) == 0.0

    def test_balanced_point(self):
        assert _game().utility(1.0) == 1.0

    def test_overprovisioned_point(self):
        assert _game().utility(3.0) == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="device power must be >= 0"):
            _game().utility(-0.5)
        with pytest.raises(ValueError, match="device power must be >= 0"):
            aggregate_miner_utility(4.0, 1.0, 1.0, np.array([1.0, -0.5]))


class TestBestResponse:
    def test_interior_maximum(self):
        assert _game().response() == pytest.approx(1.0, abs=1e-12)

    def test_root_of_the_formula(self):
        # kappa/unit_cost equals the edge power, so the interior point is 0
        assert _game(fee=1.0, edge_power=1.0).response() == 0.0

    def test_clamped_to_zero(self):
        game = _game(fee=1.0, edge_power=2.0)
        # marginal utility at the origin is kappa/X - unit_cost = -0.5
        assert game.response() == 0.0

    def test_matches_grid_search(self):
        game = _game()
        argmax, _ = grid_argmax(game.utility, 0.0, 10.0, 1e-4)
        assert abs(game.response() - argmax) <= 1e-3

    def test_oracle_agreement_random_instances(self):
        for game in random_uniform_games(25, seed=42):
            hi = game.kappa / game.unit_cost  # utility is negative beyond this
            argmax, _ = grid_argmax(game.utility, 0.0, hi + 1.0, 1e-4)
            assert abs(game.response() - argmax) <= 1e-3

    def test_first_derivative_vanishes_interior(self):
        game = _game()
        y_star = game.response()
        h = 1e-5
        derivative = (game.utility(y_star + h) - game.utility(y_star - h)) / (2 * h)
        assert abs(derivative) < 1e-6

    def test_concavity_sampled(self):
        game = _game(fee=5.0, edge_power=0.8)
        h = 0.05
        for y in np.linspace(h, 8.0, 60):
            second = game.utility(y + h) - 2.0 * game.utility(y) + game.utility(y - h)
            assert second <= 1e-12


class TestUniquenessCertificate:
    """kappa 4 and unit cost 1: the quarter bound is 1, the positivity bound 4."""

    def test_certified_instance(self):
        assert _game(edge_power=0.5).certificate() == (True, True)
        assert _game(edge_power=math.nextafter(1.0, 0.0)).certificate() == (True, True)

    def test_uncertified_instance(self):
        assert _game(edge_power=1.0).certificate() == (False, True)
        assert _game(edge_power=1.5).certificate() == (False, True)  # 1.5 < 4 still holds

    def test_tiny_edge_power_always_certified(self):
        assert _game(edge_power=1e-9).certificate()[0]

    def test_detail_reports_both_bounds(self):
        assert _game(edge_power=math.nextafter(4.0, 0.0)).certificate() == (False, True)
        assert _game(edge_power=4.0).certificate() == (False, False)
        assert _game(edge_power=5.0).certificate() == (False, False)


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
        assert _game().leader("simplified") == pytest.approx(5.0)

    def test_full_value(self):
        assert _game().leader("full") == pytest.approx(1.0)

    def test_simplified_zero_at_boundary(self):
        # edge_power * unit_cost == kappa makes the sqrt term equal to 1
        game = _game(edge_power=4.0)
        assert game.leader("simplified") == pytest.approx(0.0)

    def test_full_pays_fee_on_nonparticipation(self):
        game = _game(fee=1.0, edge_power=2.0)
        assert game.response() == 0.0
        assert game.leader("full") == pytest.approx(-1.0)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective must be one of"):
            leader_delta_utility_uniform(4.0, 1.0, 1.0, 1.0, 10.0, "other")

    def test_simplified_monotone_concave_in_fee(self):
        fees = np.linspace(0.5, 30.0, 200)
        values = _game(fee=fees).leader("simplified")
        first = np.diff(values)
        assert np.all(first > 0.0)
        assert np.all(np.diff(first) < 0.0)


class TestOptimalFee:
    def test_analytic_optimum(self):
        fee, profit = optimal_fee_uniform(1.0, 1.0, zero_delay_params())
        assert fee == pytest.approx(P_OPT_ANALYTIC, abs=1e-6)
        assert profit == pytest.approx(PROFIT_AT_OPT, abs=1e-9)

    def test_interior_stationarity(self):
        params = zero_delay_params()
        fee, profit = optimal_fee_uniform(1.0, 1.0, params)
        for delta in (1e-3, -1e-3):
            game = UniformInstance(1.0, fee * (1.0 + delta), 1.0, params)
            assert profit >= game.leader("full")

    def test_interior_optimum_satisfies_stationarity_identity(self):
        # (a/2) * sqrt(X * unit_cost * e^(rate*load)) * fee^(-3/2) == 1
        params = GameParams(fixed_reward=9.0, tx_reward=3.0, poisson_rate=0.01,
                            mobile_tx_load=10, min_consumption=0.1)
        edge_power, unit_cost = 5.0, 0.05
        fee, _ = optimal_fee_uniform(edge_power, unit_cost, params)
        a = 12.0 * params.delay_discount(10)
        growth = 1.0 / params.delay_discount(10)
        residual = 0.5 * a * math.sqrt(edge_power * unit_cost * growth) * fee ** -1.5
        assert residual == pytest.approx(1.0, abs=1e-6)

    def test_no_reward_prefers_cheapest_fee(self):
        params = zero_delay_params(fixed_reward=0.0, tx_reward=0.0, min_consumption=0.5)
        fee, profit = optimal_fee_uniform(1.0, 1.0, params)
        assert fee == 0.5
        assert profit <= 0.0

    def test_inverted_bracket_rejected(self):
        # a participation floor of 5000 above the top 100a = 1000
        with pytest.raises(ConfigError, match="fee bracket must satisfy 0 < lo < hi"):
            optimal_fee_uniform(1.0, 1.0, zero_delay_params(min_consumption=5000.0))

    def test_participation_floor_applies(self):
        # a floor above p* = 2.924 binds
        params = zero_delay_params(min_consumption=5.0)
        fee, _ = optimal_fee_uniform(1.0, 1.0, params)
        assert fee == 5.0


class TestScalarViews:
    """One-game kernel calls on Python floats equal the elementwise calls, bit for bit."""

    @staticmethod
    def _instances():
        """(edge power, fee, unit cost, params) covering every region of the formulas.

        Random instances at random, bracket-floor, bracket-top and pool-out
        fees (fee * d <= X * u), then a few at 1e+-150.
        """
        rng = np.random.default_rng(2024)
        out = []
        for _ in range(60):
            params = GameParams(fixed_reward=float(rng.uniform(0.5, 50.0)),
                                poisson_rate=float(rng.uniform(0.0, 0.05)),
                                mobile_tx_load=int(rng.integers(1, 20)),
                                min_consumption=float(rng.uniform(0.0, 1.0)))
            edge, cost = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 0.0)
            d, _, lo, hi = uniform.stage1_setup(params)
            pool_out = edge * cost / d * float(rng.uniform(0.1, 1.0))
            for fee in (float(rng.uniform(lo, hi)), lo, hi, pool_out):
                out.append((edge, fee, cost, params))
        for edge, fee, cost in ((1e150, 1.0, 1e-150), (1e-150, 1.0, 1e150), (1.0, 1e150, 1.0),
                                (1e-150, 1e-150, 1.0), (1e150, 1e150, 1e150)):
            out.append((edge, fee, cost, GameParams()))
        return out

    @pytest.mark.parametrize("objective", ["full", "simplified"])
    def test_scalar_calls_equal_the_elementwise_forms(self, objective):
        instances = self._instances()
        games = [UniformInstance(*instance) for instance in instances]
        edge, fee, cost = (np.array(column) for column in list(zip(*instances))[:3])
        d = np.array([g.discount for g in games])
        a = np.array([leader_reward_scale(g.params) for g in games])
        assert any(p * dd <= x * u for x, p, u, dd in zip(edge, fee, cost, d))  # pool out
        profits = leader_delta_utility_uniform(fee, edge, cost, d, a, objective)
        responses = pool_responses(fee * d, edge, cost)
        utilities = aggregate_miner_utility(fee * d, edge, cost, responses)
        quarter, positivity = uniqueness_certificate_uniform(fee * d, edge, cost)
        assert np.all(np.isfinite(profits)) and np.all(np.isfinite(responses))
        assert [g.leader(objective) for g in games] == profits.tolist()
        assert [g.response() for g in games] == responses.tolist()
        assert [g.utility(g.response()) for g in games] == utilities.tolist()
        assert [g.certificate() for g in games] == list(zip(quarter.tolist(),
                                                            positivity.tolist()))

    def test_overflow_gives_inf_or_nan_without_a_warning(self, tmp_path, capsys):
        # sqrt(kappa*X/u) overflows, as a Python float would, and inf/inf is nan
        game = UniformInstance(1e300, 1.0, 1e-300, GameParams())
        with np.errstate(over="ignore", invalid="ignore"):
            assert game.response() == math.inf
            assert math.isnan(game.leader("full"))
        # solve-uniform rejects what overflows, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve-uniform", "--edge-power", "1e10", "--fee", "1e308",
                             "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: best_response_power is not finite at instance 0")


class TestSolveUniform:
    def test_result_fields_consistent(self):
        # X = 0.5, kappa = 4, unit cost 1, a = 10: interior Y* = sqrt(2) - 1/2
        game = _game(edge_power=0.5)
        y_star = game.response()
        assert y_star == pytest.approx(math.sqrt(2.0) - 0.5)
        assert game.certificate()[0]
        simplified = game.leader("simplified")
        assert simplified == pytest.approx(10.0 * y_star / (0.5 + y_star))
        assert game.leader("full") == pytest.approx(simplified - 4.0)

    def test_repeated_response_is_constant_when_certified(self):
        # aggregate response depends only on the edge power, so re-solving
        # from the equilibrium reproduces it exactly
        game = _game(edge_power=0.5)
        assert game.certificate()[0]
        first = game.response()
        assert game.response() == first


def _p_star(edge_power, unit_cost, params):
    """The interior stage-I fee, cube-root form: (a^2 X u / (4 d))^(1/3)."""
    a, d = leader_reward_scale(params), params.delay_discount(params.mobile_tx_load)
    return (a * a * edge_power * unit_cost / (4.0 * d)) ** (1.0 / 3.0)


_log_uniform = lambda lo, hi: st.floats(lo, hi).map(lambda e: 10.0 ** e)  # noqa: E731


@st.composite
def _stage1_instances(draw):
    """(regime, edge power, unit cost, params), one regime each.

    large-reward puts p* in a bracket 100a wide, with a up to 1e22; floor
    puts min_consumption above p*; pool-out has X*u/d >= a/2, where
    p* <= X*u/d and no fee recruits the pool.
    """
    regime = draw(st.sampled_from(["interior", "large-reward", "floor", "pool-out",
                                   "no-reward", "zero-discount"]))
    edge, cost = draw(_log_uniform(-3.0, 2.0)), draw(_log_uniform(-3.0, 0.0))
    values = {"fixed_reward": draw(st.floats(0.5, 100.0)),
              "tx_reward": draw(st.floats(0.0, 5.0)),
              "poisson_rate": draw(st.floats(0.0, 0.05)),
              "min_consumption": draw(st.floats(0.0, 0.1))}
    if regime == "large-reward":
        values.update(fixed_reward=draw(_log_uniform(6.0, 22.0)))
    elif regime == "no-reward":
        values.update(fixed_reward=0.0, tx_reward=0.0)
    elif regime == "zero-discount":
        values.update(poisson_rate=100.0)
    elif regime == "pool-out":
        cost = draw(st.floats(1.0, 10.0))
        edge = 200.0 * draw(st.floats(1.0, 100.0)) / cost
    params = GameParams(**values)
    if regime == "floor":
        star, factor = _p_star(edge, cost, params), draw(st.floats(1.5, 10.0))
        params = replace(params, min_consumption=star * factor)
    return regime, edge, cost, params


class TestClosedFormStage1:
    """The closed-form stage I against the scalar golden section and the formula."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_stage1_instances())
    def test_no_fee_beats_the_closed_form(self, instance):
        regime, edge, cost, params = instance
        fee, profit = optimal_fee_uniform(edge, cost, params)
        assert_stage1_optimum(fee, profit, edge, cost, params)
        lo, hi = stage1_setup(params)[2:]
        if regime in ("pool-out", "no-reward", "zero-discount"):
            assert (fee, profit) == (lo, -lo)
        elif regime == "floor":
            assert fee == lo

    def test_large_reward_to_1e_12(self):
        # the search stopped at 1e-9 of a 100a-wide bracket, 4e-4 off p* here
        params = GameParams(fixed_reward=1e12)
        fee, _ = optimal_fee_uniform(50.0, 0.005, params)
        assert fee == pytest.approx(_p_star(50.0, 0.005, params), rel=1e-12)
        # first-order condition: (a/2) sqrt(X u / d) fee^(-3/2) == 1
        a, d = leader_reward_scale(params), params.delay_discount(params.mobile_tx_load)
        assert 0.5 * a * math.sqrt(50.0 * 0.005 / d) * fee ** -1.5 == pytest.approx(
            1.0, rel=1e-12)

    def test_no_search_in_uniform(self):
        assert not any(name.startswith("golden_section") for name in vars(uniform))


class TestOptimalFeesUniform:
    """The many-instance stage I against the scalar golden-section oracle."""

    EDGE = np.array([1e-3, 0.7, 5.0, 50.0, 333.3, 1e4])

    @pytest.mark.parametrize("settings", [{}, {"min_consumption": 0.0},
                                          {"min_consumption": 5.0}, {"poisson_rate": 0.0},
                                          {"fixed_reward": 0.0, "tx_reward": 0.0},
                                          {"mobile_tx_load": 50, "poisson_rate": 0.02},
                                          {"fixed_reward": 1e4}],
                             ids=["default", "floor-0", "floor-5", "no-delay", "no-reward",
                                  "heavy-load", "large-reward"])
    def test_shared_params_equal_scalar_loop(self, settings):
        params = GameParams(**settings)
        fees, profits = optimal_fees_uniform(self.EDGE, 0.005, params)
        for k, edge_power in enumerate(self.EDGE):
            assert_stage1_optimum(fees[k], profits[k], edge_power, 0.005, params)

    @pytest.mark.parametrize("unit_cost", [0.02, 0.1, 0.5])
    def test_params_per_instance_and_bracket(self, unit_cost):
        # each instance's bracket is [floor, 100a] at its own fixed reward
        params = GameParams(mobile_tx_load=5, min_consumption=1.5)
        rewards = np.array([0.0, 0.5, 3.0, 10.0, 90.0, 200.0])
        fees, profits = optimal_fees_uniform(self.EDGE, unit_cost, params, rewards)
        for k, (edge_power, reward) in enumerate(zip(self.EDGE, rewards)):
            point = replace(params, fixed_reward=float(reward))
            assert_stage1_optimum(fees[k], profits[k], edge_power, unit_cost, point)
            assert (fees[k], profits[k]) == optimal_fee_uniform(edge_power, unit_cost, point)
        # one edge power broadcasts against every reward
        one_edge = optimal_fees_uniform([50.0], unit_cost, params, rewards)
        assert [column.tolist() for column in one_edge] == [
            list(column) for column in zip(*(optimal_fee_uniform(
                50.0, unit_cost, replace(params, fixed_reward=float(r))) for r in rewards))]

    def test_empty(self):
        fees, profits = optimal_fees_uniform([], 0.005, GameParams(), [])
        assert fees.size == profits.size == 0

    @pytest.mark.parametrize("edge_power, unit_cost, message", [
        (math.nan, 0.005, "edge_power must be finite and > 0, got nan"),
        (math.inf, 0.005, "edge_power must be finite and > 0, got inf"),
        (0.0, 0.005, "edge_power must be finite and > 0, got 0.0"),
        (-2.0, 0.005, "edge_power must be finite and > 0, got -2.0"),
        (50.0, math.nan, "unit_cost must be finite and > 0, got nan"),
        (50.0, math.inf, "unit_cost must be finite and > 0, got inf"),
        (50.0, 0.0, "unit_cost must be finite and > 0, got 0.0"),
        (50.0, -1.0, "unit_cost must be finite and > 0, got -1.0"),
    ])
    def test_bad_instance_rejected_before_any_search(self, edge_power, unit_cost, message):
        with pytest.raises(ValueError, match=message):
            optimal_fees_uniform([10.0, edge_power, 20.0], unit_cost, GameParams())

    def test_scalar_solve_rejects_nonfinite_edge_power(self):
        with pytest.raises(ValueError, match="edge_power must be finite and > 0"):
            optimal_fee_uniform(math.nan, 0.005, GameParams())

    def test_params_count_must_match(self):
        # rewards and edge powers broadcast against each other, or fail to
        with pytest.raises(ValueError, match="broadcast"):
            optimal_fees_uniform([1.0, 2.0], 0.005, GameParams(), [1.0, 2.0, 3.0])
        with pytest.raises(AttributeError):
            optimal_fees_uniform([1.0], 0.005, [GameParams()])

    def test_zero_discount_full_equals_scalar_loop(self):
        # kappa = 0 only keeps the pool out: profit is -fee, best at the floor
        params = GameParams(poisson_rate=100.0)
        assert params.delay_discount(params.mobile_tx_load) == 0.0
        fees, profits = optimal_fees_uniform(self.EDGE, 0.005, params)
        for k, edge_power in enumerate(self.EDGE):
            assert_stage1_optimum(fees[k], profits[k], edge_power, 0.005, params)
        assert np.all(fees == 0.1) and np.all(profits == -0.1)

    def test_overflowing_midpoint_rejected_by_both_paths(self):
        # a reward of 1e306: the fee p* ~ 1e204 is right, but a * Y* in the
        # profit overflows and is rejected
        params = GameParams(fixed_reward=1e306)
        a, d = leader_reward_scale(params), params.delay_discount(params.mobile_tx_load)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"instance 0 \(edge power 50.0, fee "
                                                 r"\S+\): inf") as error:
                optimal_fee_uniform(50.0, 0.005, params)
            with pytest.raises(ValueError, match="not finite at instance 0 "):
                optimal_fees_uniform(self.EDGE, 0.005, params)
        fee = float(re.search(r"fee (\S+)\)", str(error.value)).group(1))
        assert 0.5 * a * math.sqrt(50.0 * 0.005 / d) * fee ** -1.5 == pytest.approx(
            1.0, rel=1e-12)

    @pytest.mark.parametrize("edge_power, unit_cost", [(1e300, 1e-300), (1e300, 1e300),
                                                       (1e-300, 1e300), (1e300, 0.005),
                                                       (1e-300, 1e-300), (1e-300, 0.005)])
    def test_overflow_is_silent_and_equals_scalar(self, edge_power, unit_cost):
        # Python floats overflow to inf (and inf/inf to nan) without a warning,
        # and so do the arrays; a profit that ends up not finite is rejected
        params = GameParams()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if (edge_power, unit_cost) == (1e300, 1e-300):
                with pytest.raises(ValueError, match="not finite at instance 0 .*: nan$"):
                    optimal_fees_uniform([edge_power], unit_cost, params)
                return
            fees, profits = optimal_fees_uniform([edge_power], unit_cost, params)
            assert_stage1_optimum(fees[0], profits[0], edge_power, unit_cost, params)


def _head_fig2(edge_power, unit_cost, params, rewards):
    """fig2's route before the reward broadcast: one GameParams per reward, then scalar stage I.

    Every reward is validated first, then every bracket, then each point's
    stage I, as that route did.  Returns (fees, profits) lists, or the error
    as (class, message, first bad instance or None).
    """
    try:
        points = [replace(params, fixed_reward=r) for r in rewards]
    except ConfigError as exc:
        return type(exc), str(exc), None
    for k, point in enumerate(points):
        try:
            stage1_setup(point)
        except ConfigError as exc:
            return type(exc), str(exc), k
    fees, profits = [], []
    for k, point in enumerate(points):
        try:
            fee, profit = optimal_fee_uniform(edge_power, unit_cost, point)
        except ValueError as exc:
            return type(exc), str(exc), k
        fees.append(fee)
        profits.append(profit)
    return fees, profits


@st.composite
def _reward_grids(draw):
    """(edge power, unit cost, params, rewards): rewards with 0, -0, subnormals, 1e+-300.

    One reward in three grids is replaced by a negative or non-finite one.
    """
    valid = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308]),
                      _log_uniform(-300.0, 300.0), st.floats(0.0, 1e3))
    rewards = draw(st.lists(valid, max_size=12))
    if rewards and draw(st.integers(0, 2)) == 0:
        bad = draw(st.one_of(_log_uniform(-300.0, 300.0).map(lambda r: -r),
                             st.sampled_from([math.nan, math.inf, -math.inf])))
        rewards[draw(st.integers(0, len(rewards) - 1))] = bad
    params = GameParams(tx_reward=draw(st.sampled_from([0.0, 2.0, 1e300])),
                        poisson_rate=draw(st.sampled_from([0.0, 0.01, 100.0])),
                        mobile_tx_load=draw(st.integers(1, 50)),
                        min_consumption=draw(st.sampled_from([0.0, 0.1, 5.0, 1e3, 1e300])))
    return draw(_log_uniform(-300.0, 300.0)), draw(_log_uniform(-300.0, 300.0)), params, rewards


class TestRewardBroadcast:
    """Stage I over a reward array equals fig2's per-point route, bit for bit."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(_reward_grids())
    def test_equals_the_per_point_route(self, instance):
        edge_power, unit_cost, params, rewards = instance
        head = _head_fig2(edge_power, unit_cost, params, rewards)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fees, profits = optimal_fees_uniform([edge_power], unit_cost, params,
                                                     np.array(rewards))
            except ValueError as exc:
                error = exc
            else:
                error = None
        if len(head) == 2:
            assert error is None and fees.shape == profits.shape == (len(rewards),)
            cells = fees.tolist() + profits.tolist()
            assert all(type(cell) is float for cell in cells)
            assert [c.hex() for c in cells] == [c.hex() for c in head[0] + head[1]]
            return
        cls, message, k = head
        if message.startswith("fee bracket"):
            message += f" at instance {k} (fixed reward {rewards[k]!r})"
        elif k is not None:
            message = message.replace("at instance 0 ", f"at instance {k} ", 1)
        assert type(error) is cls
        assert str(error) == message

    def test_every_branch_is_drawn(self):
        # the property above sees results, and each kind of error, often
        seen = set()

        @settings(max_examples=500, derandomize=True, deadline=None)
        @given(_reward_grids())
        def record(instance):
            head = _head_fig2(*instance)
            seen.add("ok" if len(head) == 2 else head[1].split(" ", 2)[1])

        record()
        assert seen == {"ok", "must", "bracket", "profit"}, seen

    def test_scalar_callers_get_plain_floats(self):
        params = GameParams()
        assert all(type(v) is float for v in uniform.stage1_setup(params))
        assert all(type(v) is float for v in optimal_fee_uniform(50.0, 0.005, params))
        d, a, lo, hi = uniform.stage1_setup(params, np.array([1.0, 2.0]))
        assert type(d) is type(lo) is float and a.shape == hi.shape == (2,)
        fees, total = optimal_fees_discriminatory(3, 0.005, params)
        assert type(total) is float and type(fees.tolist()[0]) is float
        # a report column's text follows its dtype
        for search in FEE_SEARCHES:
            table = KIND_TABLE["solve-uniform"].build(build_config({"kind": "solve-uniform",
                                                                    "fee_search": search}))
            assert table.pop("status") == ["ok"]
            assert {cells.dtype for cells in table.values()} == {np.dtype(float), np.dtype(bool)}
