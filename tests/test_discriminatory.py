"""Per-miner fee game: closed form, certificates, leader terms, fee ascent."""

import hashlib
import math
import struct

import numpy as np
import pytest

from edgeminer import (
    DegenerateProfileError,
    DiscriminatoryGame,
    GameParams,
    InfeasibleEquilibriumError,
    best_response_i,
    equilibrium_share,
    grid_argmax,
    leader_delta_utility_discriminatory,
    leader_reward_scale,
    miner_utility_i,
    nash_equilibrium_closed_form,
    optimal_fees_discriminatory,
    uniqueness_certificate_discriminatory,
)

from conftest import random_feasible_disc_games, zero_delay_params


def _game(fees, unit_cost=1.0, **params):
    return DiscriminatoryGame(np.asarray(fees, dtype=float), unit_cost,
                              zero_delay_params(**params))


class TestMinerUtility:
    def test_zero_power_zero_utility(self):
        assert miner_utility_i(_game([4, 4]), [0.0, 1.0], 0) == 0.0

    def test_matches_uniform_case(self):
        assert miner_utility_i(_game([4, 4]), [1.0, 1.0], 0) == 1.0

    def test_equilibrium_point_value(self):
        game = _game([4, 8])
        value = miner_utility_i(game, [8 / 9, 16 / 9], 1)
        assert value == pytest.approx(32 / 9, rel=1e-12)

    def test_degenerate_profile_rejected(self):
        with pytest.raises(DegenerateProfileError):
            miner_utility_i(_game([4, 4]), [0.0, 0.0], 0)


class TestBestResponse:
    def test_known_point(self):
        game = _game([4, 8])
        assert best_response_i(game, 16 / 9, 0) == pytest.approx(8 / 9, rel=1e-12)

    def test_matches_grid_search(self):
        game = _game([4, 8])
        others = 16 / 9

        def utility(x):
            return miner_utility_i(game, [x, others], 0)

        argmax, _ = grid_argmax(utility, 0.0, 5.0, 1e-4)
        assert abs(best_response_i(game, others, 0) - argmax) <= 1e-3

    def test_root_of_the_formula(self):
        game = _game([4, 8])
        # others_sum equal to fee/unit_cost zeroes the response exactly
        assert best_response_i(game, 4.0, 0) == 0.0

    def test_clamped_beyond_threshold(self):
        game = _game([4, 8])
        assert best_response_i(game, 6.0, 0) == 0.0

    def test_zero_others_rejected(self):
        with pytest.raises(DegenerateProfileError):
            best_response_i(_game([4, 4]), 0.0, 0)

    def test_concavity_in_own_power(self):
        game = _game([5, 3, 4])
        h = 0.05
        for x in np.linspace(0.1, 4.0, 50):
            second = (miner_utility_i(game, [x + h, 1.0, 2.0], 0)
                      - 2.0 * miner_utility_i(game, [x, 1.0, 2.0], 0)
                      + miner_utility_i(game, [x - h, 1.0, 2.0], 0))
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

    def test_infeasible_raises_with_indices(self):
        with pytest.raises(InfeasibleEquilibriumError) as err:
            nash_equilibrium_closed_form(_game([1, 10, 10]))
        assert err.value.indices == (0,)

    def test_fixed_point_property(self):
        for game in random_feasible_disc_games(100, seed=17):
            x = nash_equilibrium_closed_form(game).powers
            total = math.fsum(x)
            for i in range(game.n_miners):
                response = best_response_i(game, total - x[i], i)
                assert abs(response - x[i]) <= 1e-9

    def test_derivation_chain(self):
        for game in random_feasible_disc_games(50, seed=23):
            c = game.cost_coefficients
            x = nash_equilibrium_closed_form(game).powers
            total = math.fsum(x)
            assert abs(total - (game.n_miners - 1) / math.fsum(c)) <= 1e-9
            for i in range(game.n_miners):
                # the sum of the others equals c_i * total^2
                assert abs((total - x[i]) - c[i] * total * total) <= 1e-9


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
        game = _game([4, 8])
        assert leader_delta_utility_discriminatory(game, 0, "simplified") == pytest.approx(10 / 3)

    def test_full_value(self):
        game = _game([4, 8])
        assert leader_delta_utility_discriminatory(game, 0, "full") == pytest.approx(-2 / 3)

    def test_symmetric_share(self):
        game = _game([6, 6, 6])
        a = leader_reward_scale(game.params)
        assert leader_delta_utility_discriminatory(game, 0, "simplified") == pytest.approx(a / 3)

    def test_share_identity(self):
        for game in random_feasible_disc_games(60, seed=31):
            shares = nash_equilibrium_closed_form(game).shares()
            for i in range(game.n_miners):
                assert abs(shares[i] - equilibrium_share(game, i)) <= 1e-9

    def test_per_power_fee_basis(self):
        game = _game([4, 8])
        allocation = nash_equilibrium_closed_form(game)
        lump = leader_delta_utility_discriminatory(game, 0, "full", "lump")
        per_power = leader_delta_utility_discriminatory(game, 0, "full", "per_power")
        assert per_power == pytest.approx(lump + 4.0 - 4.0 * allocation.powers[0])

    def test_simplified_monotone_concave_in_own_fee(self):
        params = zero_delay_params()
        fees = np.linspace(1.0, 20.0, 150)
        values = [leader_delta_utility_discriminatory(
            DiscriminatoryGame(np.array([p, 5.0, 7.0]), 1.0, params), 0, "simplified")
            for p in fees]
        first = np.diff(values)
        assert np.all(first > 0.0)
        assert np.all(np.diff(first) < 0.0)

    def test_infeasibility_propagates(self):
        with pytest.raises(InfeasibleEquilibriumError):
            leader_delta_utility_discriminatory(_game([1, 10, 10]), 0, "full")


class TestSolveDiscriminatory:
    def test_totals_match_per_miner_sums(self):
        game = _game([4, 8])
        a = leader_reward_scale(game.params)
        full = math.fsum(leader_delta_utility_discriminatory(game, i, "full") for i in range(2))
        simplified = math.fsum(leader_delta_utility_discriminatory(game, i, "simplified")
                               for i in range(2))
        assert full == pytest.approx(a - 12.0)
        assert simplified == pytest.approx(a)
        np.testing.assert_allclose(nash_equilibrium_closed_form(game).powers, [8 / 9, 16 / 9])


# sha256 prefixes of fees.tobytes() + the packed profit of
# optimal_fees_discriminatory(M, 0.005, GameParams()); the coordinate ascent
# runs the scalar golden_section_max, and its output must not move by a bit
ASCENT_DIGESTS = {
    2: "23997a1929ef6330", 3: "cae96af4152ce7d6", 4: "947bfef2a2fa2622",
    5: "3383268fc835c4cf", 6: "79e47ea927deb92f", 7: "bbf8061eaad13666",
    8: "8dd5406ee512086c", 9: "d5d4395d3ea6ab36", 10: "483796e55566d7a0",
    11: "db8794914ae2ce08", 12: "ffcba9b86c4d01b0", 13: "baa55631ea77a0d7",
    14: "fc4944c0c52dc31e", 15: "ad87fce28bb5e1a7", 16: "f5183ca95c53bb68",
    17: "6170238287499e57", 18: "f3aa7a1acd49c4a8", 19: "34933676fe5d510c",
    20: "4e70f9d9c85c0588", 21: "d60cfc81eec4ff22", 22: "2157e3d3b397a0bb",
    23: "22c0f53ef1a9c241", 24: "c7a974d7c240cf39", 25: "008cab67dd753934",
    26: "65acd29d0933491c", 27: "2394f314708aec76", 28: "d9da2ab5cd2803c8",
    29: "6b7915fa53f45e94", 30: "5f7e1246feaf42a7", 31: "8993c097d0c3e6f6",
    32: "0acb8106f5f598de", 33: "b339c22d39c635e9", 34: "51f86965d4e8c4fd",
    35: "8f0968fc20c138f5", 36: "14fa4ecb258d1c6b", 37: "3e1856fff7ed280d",
    38: "3818d9ff6d0d65f7", 39: "87bc1fccd1928140", 40: "4b601d24fb7c8739",
}


class TestOptimalFees:
    @pytest.mark.parametrize("m", sorted(ASCENT_DIGESTS))
    def test_output_bits_pinned(self, m):
        fees, profit = optimal_fees_discriminatory(m, 0.005, GameParams())
        digest = hashlib.sha256(fees.tobytes() + struct.pack("<d", profit)).hexdigest()
        assert digest[:16] == ASCENT_DIGESTS[m]

    def test_simplified_runs_to_bracket_top(self):
        fees, _ = optimal_fees_discriminatory(3, 1.0, zero_delay_params(),
                                              objective="simplified", bracket=(0.5, 12.0))
        np.testing.assert_allclose(fees, 12.0)

    def test_full_symmetric_fixed_point(self):
        # analytic per-miner stationary fee is a*(M-1)^2/M^2
        fees, profit = optimal_fees_discriminatory(2, 1.0, zero_delay_params(),
                                                   objective="full", bracket=(0.1, 20.0))
        np.testing.assert_allclose(fees, 2.5, atol=1e-6)
        a = 10.0
        assert profit == pytest.approx(a - 5.0, abs=1e-6)

    def test_full_matches_grid_nash_oracle(self):
        params = zero_delay_params()
        fees, _ = optimal_fees_discriminatory(2, 1.0, params,
                                              objective="full", bracket=(0.1, 10.0))
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
            fees, _ = optimal_fees_discriminatory(m, 1.0, zero_delay_params(),
                                                  objective="full", bracket=(0.1, 20.0),
                                                  rel_step=1e-7)
            expected = 10.0 * (m - 1) ** 2 / m ** 2
            np.testing.assert_allclose(fees, expected, atol=1e-5)

    def test_no_reward_prefers_minimal_fees(self):
        params = zero_delay_params(fixed_reward=0.0, tx_reward=0.0)
        fees, _ = optimal_fees_discriminatory(2, 1.0, params,
                                              objective="full", bracket=(0.3, 5.0))
        np.testing.assert_allclose(fees, 0.3, atol=1e-9)

    def test_participation_floor(self):
        params = zero_delay_params(min_consumption=1.5)
        fees, _ = optimal_fees_discriminatory(2, 1.0, params,
                                              objective="full", bracket=(0.1, 20.0))
        assert np.all(fees >= 1.5)
