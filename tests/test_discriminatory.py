"""Per-miner fee game: closed forms at both stages, certificates, leader terms."""

import math
import re
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgeminer import (
    DegenerateProfileError,
    DiscriminatoryGame,
    GameParams,
    best_response_dynamics,
    golden_section_max,
    grid_argmax,
    leader_delta_utility_discriminatory,
    leader_reward_scale,
    miner_utilities,
    nash_equilibrium_closed_form,
    optimal_fees_discriminatory,
    pool_responses,
    share_identity,
    uniqueness_certificate_discriminatory,
)
from edgeminer.core import stage1_setup

from conftest import random_feasible_disc_games, zero_delay_params


def _game(fees, unit_cost=1.0, **params):
    return DiscriminatoryGame(np.asarray(fees, dtype=float), unit_cost,
                              zero_delay_params(**params))


def _deltas(game, objective):
    """Every miner's leader term at the game's Nash point."""
    return leader_delta_utility_discriminatory(game, nash_equilibrium_closed_form(game),
                                               objective)


class TestMinerUtility:
    def test_zero_power_zero_utility(self):
        assert miner_utilities(_game([4, 4]), [0.0, 1.0])[0] == 0.0

    def test_matches_uniform_case(self):
        assert miner_utilities(_game([4, 4]), [1.0, 1.0])[0] == 1.0

    def test_equilibrium_point_value(self):
        game = _game([4, 8])
        value = miner_utilities(game, [8 / 9, 16 / 9])[1]
        assert value == pytest.approx(32 / 9, rel=1e-12)

    def test_degenerate_profile_rejected(self):
        with pytest.raises(DegenerateProfileError):
            miner_utilities(_game([4, 4]), [0.0, 0.0])


class TestBestResponse:
    def test_known_point(self):
        game = _game([4, 8])
        assert (pool_responses(1.0, 16 / 9, game.cost_coefficients[0])
                == pytest.approx(8 / 9, rel=1e-12))

    def test_matches_grid_search(self):
        game = _game([4, 8])
        others = 16 / 9

        def utility(x):
            return miner_utilities(game, [x, others])[0]

        argmax, _ = grid_argmax(utility, 0.0, 5.0, 1e-4)
        assert abs(pool_responses(1.0, others, game.cost_coefficients[0]) - argmax) <= 1e-3

    def test_root_of_the_formula(self):
        game = _game([4, 8])
        # others_sum equal to fee/unit_cost zeroes the response exactly
        assert pool_responses(1.0, 4.0, game.cost_coefficients[0]) == 0.0

    def test_clamped_beyond_threshold(self):
        game = _game([4, 8])
        assert pool_responses(1.0, 6.0, game.cost_coefficients[0]) == 0.0

    def test_concavity_in_own_power(self):
        game = _game([5, 3, 4])
        h = 0.05
        for x in np.linspace(0.1, 4.0, 50):
            second = (miner_utilities(game, [x + h, 1.0, 2.0])[0]
                      - 2.0 * miner_utilities(game, [x, 1.0, 2.0])[0]
                      + miner_utilities(game, [x - h, 1.0, 2.0])[0])
            assert second <= 1e-12


class TestClosedForm:
    def test_symmetric_two_miners(self):
        allocation = nash_equilibrium_closed_form(_game([4, 4]))
        np.testing.assert_allclose(allocation.powers, [1.0, 1.0], rtol=1e-12)
        assert allocation.total == pytest.approx(2.0)

    def test_asymmetric_two_miners(self):
        allocation = nash_equilibrium_closed_form(_game([4, 8]))
        np.testing.assert_allclose(allocation.powers, [8 / 9, 16 / 9], rtol=1e-12)
        assert allocation.total == pytest.approx(8 / 3)

    def test_symmetric_three_miners(self):
        # fee/unit_cost = 9 gives (M-1)*9/M^2 = 2 per miner
        allocation = nash_equilibrium_closed_form(_game([9, 9, 9]))
        np.testing.assert_allclose(allocation.powers, [2.0, 2.0, 2.0], rtol=1e-12)

    def test_symmetric_fees_give_equal_powers(self):
        allocation = nash_equilibrium_closed_form(_game([5, 5, 5, 5, 5]))
        assert np.all(allocation.powers == allocation.powers[0])

    def test_dropout_gets_zero_power(self):
        # c = (1, 0.1, 0.1): the two cheap miners play the two-miner game alone
        allocation = nash_equilibrium_closed_form(_game([1, 10, 10]))
        np.testing.assert_allclose(allocation.powers, [0.0, 2.5, 2.5], rtol=1e-12)
        assert allocation.powers[0] == 0.0

    def test_zero_discount_rejected(self):
        with pytest.raises(ValueError, match="device-load delay discount"):
            DiscriminatoryGame(np.array([4.0, 5.0]), 0.005, GameParams(poisson_rate=100.0))
        # exp(-740) is subnormal: the discount is positive but c overflows
        with pytest.raises(ValueError, match="overflow"):
            DiscriminatoryGame(np.array([4.0, 5.0]), 0.005, GameParams(poisson_rate=74.0))
        # the smallest subnormal unit cost makes c 0, which no active set fits
        with pytest.raises(ValueError, match="round to 0"):
            DiscriminatoryGame(np.array([4.0, 5.0]), 5e-324, GameParams())

    @pytest.mark.parametrize("fees, named", [
        ([4.0, 1e17], "fees 1e+17 and 4.0"),
        ([1e17, 4.0], "fees 1e+17 and 4.0"),
        ([4.0, 1e18, 1e35], "fees 1e+35 and 1e+18"),
    ], ids=["sorted", "reversed", "three-miners"])
    def test_one_active_miner_names_the_two_cheapest(self, fees, named):
        # c_(1) + c_(2) rounds to c_(2): no k >= 2 fits, whatever the order of the fees
        game = DiscriminatoryGame(np.array(fees), 0.005, GameParams())
        with pytest.raises(ValueError, match="^" + re.escape(named) + " of the two cheapest "
                           "miners: their cost ratio .* is below float resolution"):
            nash_equilibrium_closed_form(game)

    def test_overflowing_total_rejected(self):
        # c is subnormal, so (k-1)/sum(c) passes the float range
        with pytest.raises(ValueError, match="equilibrium total power .* overflows"):
            nash_equilibrium_closed_form(DiscriminatoryGame(np.array([4.0, 5.0]), 1e-320))

    def test_borderline_active_miner_rounds_to_zero_not_below(self):
        # the last miner passes (k-1) c_(k) < sum c by rounding; T - c T^2
        # then evaluates to -8.9e-16, which the solver clamps to 0
        c = np.array([0.10660974988063943, 0.1426552848997331,
                      0.244528096362861, 0.24689656557161674])
        game = types.SimpleNamespace(cost_coefficients=c)
        total = 3 / math.fsum(c)
        assert total - c[3] * total * total < 0.0
        powers = nash_equilibrium_closed_form(game).powers
        assert powers[3] == 0.0 and np.all(powers[:3] > 0.0)

    def test_fixed_point_property(self):
        for game in random_feasible_disc_games(100, seed=17):
            x = nash_equilibrium_closed_form(game).powers
            total = math.fsum(x)
            responses = pool_responses(1.0, total - x, game.cost_coefficients)
            assert np.all(np.abs(responses - x) <= 1e-9)

    def test_derivation_chain(self):
        for game in random_feasible_disc_games(50, seed=23):
            c = game.cost_coefficients
            x = nash_equilibrium_closed_form(game).powers
            total = math.fsum(x)
            assert abs(total - (game.n_miners - 1) / math.fsum(c)) <= 1e-9
            for i in range(game.n_miners):
                # the sum of the others equals c_i * total^2
                assert abs((total - x[i]) - c[i] * total * total) <= 1e-9


def _br_residual(game, x):
    """max_i |BR_i(x_-i) - x_i|, each best response worked out from its formula."""
    others = math.fsum(x) - x
    response = np.maximum(np.sqrt(others / game.cost_coefficients) - others, 0.0)
    return float(np.max(np.abs(response - x)))


# fee vectors of 2-12 miners over a 1-to-`ratio` spread: dispersed enough
# that many games have miners who stay out
_games = st.builds(
    lambda fees, unit_cost, rate: DiscriminatoryGame(
        np.array(fees), unit_cost, GameParams(poisson_rate=rate)),
    st.lists(st.floats(1.0, 10.0), min_size=2, max_size=12),
    st.floats(0.001, 2.0), st.sampled_from([0.0, 0.005, 0.02]))


class TestActiveSetOracles:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_games)
    def test_equals_damped_brd(self, game):
        x = nash_equilibrium_closed_form(game).powers
        scale = float(np.max(x))
        reached = best_response_dynamics(game, np.full(game.n_miners, scale),
                                         tol=1e-12 * scale, max_iters=200_000).powers
        np.testing.assert_allclose(reached, x, rtol=0, atol=1e-9 * scale)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_games, st.randoms(use_true_random=False))
    def test_fixed_point_shares_and_permutation(self, game, rnd):
        allocation = nash_equilibrium_closed_form(game)
        x = allocation.powers
        assert _br_residual(game, x) <= 1e-9 * float(np.max(x))
        assert abs(math.fsum(allocation.shares()) - 1.0) <= 1e-12
        assert np.count_nonzero(x) >= 2
        np.testing.assert_allclose(share_identity(game, allocation), allocation.shares(),
                                   rtol=0, atol=1e-9)
        order = list(range(game.n_miners))
        rnd.shuffle(order)
        permuted = DiscriminatoryGame(game.fees[order], game.unit_cost, game.params)
        np.testing.assert_array_equal(nash_equilibrium_closed_form(permuted).powers, x[order])

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(2, 60), st.floats(1.0, 100.0), st.floats(0.001, 2.0),
           st.lists(st.floats(-1.0, 1.0), min_size=60, max_size=60))
    def test_all_active_is_the_interior_formula(self, m, level, unit_cost, jitter):
        # a relative spread under 1/(2M) keeps every miner active
        fees = level * (1.0 + np.array(jitter[:m]) / (2.0 * m + 1.0))
        game = DiscriminatoryGame(fees, unit_cost, GameParams())
        c = game.cost_coefficients
        assert (m - 1) * c.max() < c.sum()
        total = (m - 1) / math.fsum(c)
        expected = total - c * total * total
        assert nash_equilibrium_closed_form(game).powers.tobytes() == expected.tobytes()

    def test_dispersed_fifty_miners(self):
        # the interior formula gives 21 of these miners negative power
        game = DiscriminatoryGame(np.linspace(4.0, 8.0, 50), 0.005, GameParams())
        x = nash_equilibrium_closed_form(game).powers
        assert np.count_nonzero(x) == 14 and np.all(x[36:] > 0) and np.all(x[:36] == 0)
        assert _br_residual(game, x) <= 1e-9 * float(np.max(x))


class TestUniquenessCertificate:
    def test_literal_condition_per_miner(self):
        cert = uniqueness_certificate_discriminatory(_game([10, 1, 1]))
        assert cert.tolist() == [True, False, False]

    def test_symmetric_fees_never_pass(self):
        cert = uniqueness_certificate_discriminatory(_game([4, 4]))
        assert cert.tolist() == [False, False]

    def test_huge_fee_passes_for_that_miner(self):
        cert = uniqueness_certificate_discriminatory(_game([1e9, 1, 1]))
        assert bool(cert[0])

    def test_never_gates_computation(self):
        game = _game([4, 4])
        assert not uniqueness_certificate_discriminatory(game).any()
        nash_equilibrium_closed_form(game)  # still solvable


class TestLeaderDelta:
    def test_simplified_value(self):
        assert _deltas(_game([4, 8]), "simplified")[0] == pytest.approx(10 / 3)

    def test_full_value(self):
        assert _deltas(_game([4, 8]), "full")[0] == pytest.approx(-2 / 3)

    def test_symmetric_share(self):
        game = _game([6, 6, 6])
        a = leader_reward_scale(game.params)
        np.testing.assert_allclose(_deltas(game, "simplified"), a / 3)

    def test_share_identity(self):
        for game in random_feasible_disc_games(60, seed=31):
            allocation = nash_equilibrium_closed_form(game)
            identity = share_identity(game, allocation)
            inv = 1.0 / game.fees
            expected = 1.0 - (game.n_miners - 1) / (game.fees * inv.sum())
            np.testing.assert_allclose(identity, expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(allocation.shares(), identity, rtol=0, atol=1e-9)

    def test_simplified_monotone_concave_in_own_fee(self):
        # against fees 5 and 7, miner 0 is active once 2/p < 1/p + 1/5 + 1/7,
        # i.e. p > 35/12; below that it stays out and its term is 0
        params = zero_delay_params()
        fees = np.linspace(1.0, 20.0, 150)
        values = np.array([_deltas(DiscriminatoryGame(np.array([p, 5.0, 7.0]), 1.0, params),
                                   "simplified")[0] for p in fees])
        active = fees > 35 / 12
        assert np.all(values[~active] == 0.0) and np.all(values[active] > 0.0)
        first = np.diff(values[active])
        assert np.all(first > 0.0)
        assert np.all(np.diff(first) < 0.0)

    def test_inactive_miner_terms(self):
        game = _game([1, 10, 10])  # miner 0 stays out
        a = leader_reward_scale(game.params)
        simplified = _deltas(game, "simplified")
        assert simplified[0] == 0.0
        assert _deltas(game, "full")[0] == -1.0
        # the two active miners split the pool: 1 - 1/(10 * (1/10 + 1/10)) = 1/2
        np.testing.assert_allclose(simplified[1:], a / 2, rtol=1e-12)

    def test_full_is_reward_share_minus_fee(self):
        # the leader pays each miner its fee, active or not
        game = _game([1, 10, 10])
        allocation = nash_equilibrium_closed_form(game)
        a = leader_reward_scale(game.params)
        np.testing.assert_array_equal(leader_delta_utility_discriminatory(game, allocation),
                                      a * allocation.shares() - game.fees)

    def test_no_fee_basis_argument(self):
        game = _game([4, 8])
        allocation = nash_equilibrium_closed_form(game)
        with pytest.raises(TypeError):
            leader_delta_utility_discriminatory(game, allocation, "full", fee_basis="lump")

    def test_bad_objective_rejected(self):
        game = _game([4, 8])
        allocation = nash_equilibrium_closed_form(game)
        with pytest.raises(ValueError, match="objective must be one of"):
            leader_delta_utility_discriminatory(game, allocation, "other")


class TestSolveDiscriminatory:
    def test_totals_match_per_miner_sums(self):
        game = _game([4, 8])
        a = leader_reward_scale(game.params)
        full = math.fsum(_deltas(game, "full").tolist())
        simplified = math.fsum(_deltas(game, "simplified").tolist())
        assert full == pytest.approx(a - 12.0)
        assert simplified == pytest.approx(a)
        np.testing.assert_allclose(nash_equilibrium_closed_form(game).powers, [8 / 9, 16 / 9])


def _per_miner_terms(fees, a):
    """Each miner's full profit term a * (1 - (M-1)/(p_i * sum_j 1/p_j)) - p_i."""
    share = 1.0 - (fees.size - 1) / (fees * np.sum(1.0 / fees))
    return a * share - fees


def _no_coordinate_moves(fees, a, lo, hi):
    """Per-coordinate golden-section best response from ``fees``, others fixed.

    A golden section compares objective values, so on a smooth interior
    maximum it locates the argmax only to about sqrt(machine epsilon), 2e-8
    relative here: the gate is that no coordinate improves its own term by
    more than rounding, and moves by at most 1e-7 relative.  An optimum on a
    bracket end is found exactly, and there no fee may move by 1e-9.
    """
    for i in range(fees.size):
        others = math.fsum(1.0 / np.delete(fees, i))

        def term(p_i):
            share = 1.0 - (fees.size - 1) / (p_i * (1.0 / p_i + others))
            return a * share - p_i

        best, value = golden_section_max(term, lo, hi, rel_tol=1e-12)
        here = term(float(fees[i]))
        assert value <= here + 1e-12 * (1.0 + abs(here)), (i, best, value, here)
        interior = lo < fees[i] < hi
        assert abs(best - fees[i]) <= (1e-7 if interior else 1e-9) * fees[i], (i, best)


class TestOptimalFees:
    @pytest.mark.parametrize("m", range(2, 41))
    def test_output_bits_pinned(self, m):
        # the symmetric point a((M-1)/M)^2 bit for bit, its summed profit,
        # and the golden-section best response of every coordinate
        params = GameParams()
        a = leader_reward_scale(params)
        fees, profit = optimal_fees_discriminatory(m, 0.005, params)
        np.testing.assert_array_equal(fees, np.full(m, a * ((m - 1) / m) ** 2))
        assert profit == math.fsum(_per_miner_terms(fees, a))
        _no_coordinate_moves(fees, a, *stage1_setup(params)[2:])

    # (params, the bracket end or None for the interior point); the
    # symmetric point a(M-1)^2/M^2 stays below the top 100a
    cases = {
        "floor-clamp": (zero_delay_params(min_consumption=25.0), "lo"),
        "no-reward": (zero_delay_params(fixed_reward=0.0), "lo"),
        "interior": (zero_delay_params(min_consumption=1e-3), None),
        "interior-large-reward": (zero_delay_params(fixed_reward=1e4), None),
    }

    @pytest.mark.parametrize("case", sorted(cases))
    def test_no_coordinate_moves_from_closed_form(self, case):
        params, end = self.cases[case]
        a = leader_reward_scale(params)
        lo, hi = stage1_setup(params)[2:]
        for m in range(2, 41):
            fees, profit = optimal_fees_discriminatory(m, 1.0, params)
            expected = {"lo": lo, None: a * ((m - 1) / m) ** 2}[end]
            np.testing.assert_array_equal(fees, np.full(m, expected))
            assert profit == math.fsum(_per_miner_terms(fees, a))
            _no_coordinate_moves(fees, a, lo, hi)

    def test_reward_near_float_max_stays_finite(self):
        # a * (M-1)^2 overflows here; the symmetric point a((M-1)/M)^2 does not
        params = GameParams(fixed_reward=1e306)
        a = leader_reward_scale(params)
        fees, profit = optimal_fees_discriminatory(40, 0.005, params)
        np.testing.assert_allclose(fees, (39 / 40) ** 2 * a, rtol=1e-15)
        assert math.isfinite(profit)
        assert profit == math.fsum(_per_miner_terms(fees, a))
        assert profit == pytest.approx(a - 40 * fees[0], rel=1e-12)

    def test_first_order_condition(self):
        # d/dp_i of miner i's term with the others at p: a(M-1)s/(1+p s)^2 - 1,
        # s = (M-1)/p; zero inside the bracket, <= 0 on the floor, >= 0 on top
        for params in (zero_delay_params(), zero_delay_params(min_consumption=9.0)):
            a = leader_reward_scale(params)
            lo, hi = stage1_setup(params)[2:]
            for m in range(2, 41):
                fees, _ = optimal_fees_discriminatory(m, 1.0, params)
                p = float(fees[0])
                s = (m - 1) / p
                slope = a * (m - 1) * s / (1.0 + p * s) ** 2 - 1.0
                if p == lo:
                    assert slope <= 1e-12
                elif p == hi:
                    assert slope >= -1e-12
                else:
                    assert abs(slope) <= 1e-12

    def test_invalid_inputs_raise(self):
        params = GameParams()
        with pytest.raises(ValueError, match="two miners"):
            optimal_fees_discriminatory(1, 0.005, params)
        for unit_cost in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="unit_cost must be finite and > 0"):
                optimal_fees_discriminatory(3, unit_cost, params)
        with pytest.raises(ValueError, match="bracket"):
            # a participation floor above the top 100a = 1086
            optimal_fees_discriminatory(3, 0.005, GameParams(min_consumption=1e4))

    def test_full_symmetric_fixed_point(self):
        # analytic per-miner stationary fee is a*(M-1)^2/M^2
        fees, profit = optimal_fees_discriminatory(2, 1.0, zero_delay_params())
        np.testing.assert_allclose(fees, 2.5, atol=1e-6)
        a = 10.0
        assert profit == pytest.approx(a - 5.0, abs=1e-6)

    def test_full_matches_grid_nash_oracle(self):
        params = zero_delay_params()
        fees, _ = optimal_fees_discriminatory(2, 1.0, params)
        a = leader_reward_scale(params)
        grid = np.arange(0.1, 10.0 + 1e-9, 1e-2)

        def term(p_i, p_j):
            inv = 1.0 / p_i + 1.0 / p_j
            return a * (1.0 - 1.0 / (p_i * inv)) - p_i

        # each coordinate must be the grid argmax of its own term
        for i, j in ((0, 1), (1, 0)):
            values = term(grid, fees[j])
            best = grid[int(np.argmax(values))]
            assert abs(best - fees[i]) <= 1e-2
        assert abs(fees[0] - fees[1]) <= 1e-6  # exchangeable game, symmetric point

    def test_larger_symmetric_cases(self):
        for m in (3, 5, 10):
            fees, _ = optimal_fees_discriminatory(m, 1.0, zero_delay_params())
            expected = 10.0 * (m - 1) ** 2 / m ** 2
            np.testing.assert_allclose(fees, expected, atol=1e-5)

    def test_no_reward_prefers_minimal_fees(self):
        params = zero_delay_params(fixed_reward=0.0, tx_reward=0.0, min_consumption=0.3)
        fees, _ = optimal_fees_discriminatory(2, 1.0, params)
        np.testing.assert_allclose(fees, 0.3, atol=1e-9)

    def test_participation_floor(self):
        # a floor above the symmetric point a(M-1)^2/M^2 = 2.5 binds
        params = zero_delay_params(min_consumption=5.0)
        fees, _ = optimal_fees_discriminatory(2, 1.0, params)
        np.testing.assert_array_equal(fees, [5.0, 5.0])
